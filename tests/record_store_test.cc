// Record store tests: inline and overflow records, replacements that
// relocate, removal with page release, partial reads, and reopen. The
// store is addressed by RecordLocation alone; these tests keep the
// locations themselves, as RangeManager does in each RangeMeta.

#include "storage/record_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "test_util.h"

namespace laxml {
namespace {

class RecordStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PagerOptions options;
    options.page_size = 512;
    options.pool_frames = 16;
    auto pager = Pager::OpenInMemory(options);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
    auto store = RecordStore::Open(pager_.get(), kInvalidPageId);
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
  }

  std::string ReadString(const RecordLocation& loc) {
    auto r = store_->Read(loc);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::string(r->begin(), r->end()) : "";
  }

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<RecordStore> store_;
};

TEST_F(RecordStoreTest, SmallRecordsRoundTrip) {
  ASSERT_OK_AND_ASSIGN(RecordLocation a,
                       store_->Place(Slice(std::string("aa"))));
  ASSERT_OK_AND_ASSIGN(RecordLocation b,
                       store_->Place(Slice(std::string("bbbb"))));
  EXPECT_NE(a, b);
  EXPECT_EQ(ReadString(a), "aa");
  EXPECT_EQ(ReadString(b), "bbbb");
  EXPECT_EQ(b.len, 4u);
  EXPECT_EQ(b.kind, RecordLocation::kInline);
  EXPECT_NE(b.page, kInvalidPageId);
  EXPECT_NE(b.page, 0u);
}

TEST_F(RecordStoreTest, LargeRecordUsesOverflowChain) {
  std::string big(5000, 'B');  // ~10 pages at 512B
  for (size_t i = 0; i < big.size(); ++i) big[i] = 'A' + (i % 26);
  ASSERT_OK_AND_ASSIGN(RecordLocation loc, store_->Place(Slice(big)));
  EXPECT_EQ(loc.kind, RecordLocation::kOverflow);
  EXPECT_EQ(ReadString(loc), big);
  EXPECT_GE(store_->stats().overflow_records, 1u);
}

TEST_F(RecordStoreTest, ReadPrefixAndSlice) {
  std::string data;
  for (int i = 0; i < 3000; ++i) data.push_back('a' + (i % 26));
  ASSERT_OK_AND_ASSIGN(RecordLocation loc, store_->Place(Slice(data)));
  ASSERT_OK_AND_ASSIGN(RecordSlice prefix, store_->PinSlice(loc, 0, 10));
  EXPECT_EQ(prefix.bytes().ToString(), data.substr(0, 10));
  // Overflow pieces hold 512 - 20 (page header) - 4 (next link) bytes. A
  // slice inside one piece lends the pinned frame; one that crosses a
  // piece boundary (470 + 40 > 488, 960 + 40 > 976) is a copy.
  constexpr size_t kPiece = 488;
  for (size_t off : {0ul, 100ul, 470ul, 490ul, 500ul, 960ul, 1500ul, 2990ul}) {
    ASSERT_OK_AND_ASSIGN(RecordSlice slice, store_->PinSlice(loc, off, 40));
    EXPECT_EQ(slice.bytes().ToString(), data.substr(off, 40))
        << "offset " << off;
    const size_t last = std::min(off + 40, data.size()) - 1;
    EXPECT_EQ(slice.borrowed(), off / kPiece == last / kPiece)
        << "offset " << off;
  }
  // An inline record always lends its page.
  ASSERT_OK_AND_ASSIGN(RecordLocation small,
                       store_->Place(Slice(std::string("inline bytes"))));
  ASSERT_OK_AND_ASSIGN(RecordSlice word, store_->PinSlice(small, 7, 5));
  EXPECT_TRUE(word.borrowed());
  EXPECT_EQ(word.bytes().ToString(), "bytes");
  // Past-the-end slice is empty; over-long slice is clamped at the
  // record end, in an overflow record and in an inline one.
  ASSERT_OK_AND_ASSIGN(auto past, store_->PinSlice(loc, 5000, 10));
  EXPECT_EQ(past.size(), 0u);
  ASSERT_OK_AND_ASSIGN(auto clamped, store_->PinSlice(loc, 2995, 100));
  EXPECT_EQ(clamped.bytes().ToString(), data.substr(2995));
  ASSERT_OK_AND_ASSIGN(auto tail, store_->PinSlice(small, 10, 100));
  EXPECT_EQ(tail.bytes().ToString(), "es");
  // A slice covering the whole record copies every piece.
  ASSERT_OK_AND_ASSIGN(auto whole, store_->PinSlice(loc, 0, SIZE_MAX));
  EXPECT_FALSE(whole.borrowed());
  EXPECT_EQ(whole.bytes().ToString(), data);
}

TEST_F(RecordStoreTest, LocationThatDisagreesWithTheSlotIsCorruption) {
  ASSERT_OK_AND_ASSIGN(RecordLocation loc,
                       store_->Place(Slice(std::string("twelve bytes"))));
  RecordLocation wrong = loc;
  wrong.len = loc.len + 1;
  EXPECT_TRUE(store_->PinSlice(wrong, 0, 1).status().IsCorruption());
  wrong = loc;
  wrong.slot = static_cast<uint16_t>(loc.slot + 5);
  EXPECT_TRUE(store_->PinSlice(wrong, 0, 1).status().IsNotFound());
}

TEST_F(RecordStoreTest, ReplaceInPlaceAndRelocating) {
  ASSERT_OK_AND_ASSIGN(RecordLocation loc,
                       store_->Place(Slice(std::string("start"))));
  ASSERT_OK_AND_ASSIGN(RecordLocation shrunk,
                       store_->Replace(loc, Slice(std::string("st"))));
  EXPECT_EQ(shrunk.page, loc.page);
  EXPECT_EQ(shrunk.slot, loc.slot);
  EXPECT_EQ(ReadString(shrunk), "st");
  std::string big(2000, 'G');
  ASSERT_OK_AND_ASSIGN(RecordLocation grown,
                       store_->Replace(shrunk, Slice(big)));
  EXPECT_EQ(grown.kind, RecordLocation::kOverflow);
  EXPECT_EQ(ReadString(grown), big);
  ASSERT_OK_AND_ASSIGN(
      RecordLocation again,
      store_->Replace(grown, Slice(std::string("small again"))));
  EXPECT_EQ(again.kind, RecordLocation::kInline);
  EXPECT_EQ(ReadString(again), "small again");
}

TEST_F(RecordStoreTest, RemoveFreesPages) {
  std::string big(4000, 'D');
  ASSERT_OK_AND_ASSIGN(RecordLocation loc, store_->Place(Slice(big)));
  uint32_t used_before = pager_->page_count() - pager_->free_page_count();
  ASSERT_LAXML_OK(store_->Remove(loc));
  uint32_t used_after = pager_->page_count() - pager_->free_page_count();
  EXPECT_LT(used_after, used_before);  // overflow and heap pages returned
  EXPECT_EQ(store_->data_head(), kInvalidPageId);
  EXPECT_EQ(store_->stats().data_pages, 0u);
}

TEST_F(RecordStoreTest, RemovedSlotIsDead) {
  ASSERT_OK_AND_ASSIGN(RecordLocation keep,
                       store_->Place(Slice(std::string("keep"))));
  ASSERT_OK_AND_ASSIGN(RecordLocation gone,
                       store_->Place(Slice(std::string("gone"))));
  ASSERT_EQ(keep.page, gone.page);
  ASSERT_LAXML_OK(store_->Remove(gone));
  EXPECT_TRUE(store_->Read(gone).status().IsNotFound());
  EXPECT_TRUE(store_->Remove(gone).IsNotFound());
  EXPECT_EQ(ReadString(keep), "keep");
}

TEST_F(RecordStoreTest, ManyRecordsAcrossPages) {
  std::vector<RecordLocation> locs;
  for (int i = 0; i < 300; ++i) {
    std::string payload = "record-" + std::to_string(i) + "-" +
                          std::string(i % 50, 'p');
    ASSERT_OK_AND_ASSIGN(RecordLocation loc, store_->Place(Slice(payload)));
    locs.push_back(loc);
  }
  EXPECT_GT(store_->stats().data_pages, 5u);
  for (int i = 0; i < 300; ++i) {
    std::string expected = "record-" + std::to_string(i) + "-" +
                           std::string(i % 50, 'p');
    EXPECT_EQ(ReadString(locs[i]), expected);
  }
}

TEST_F(RecordStoreTest, EmptyPayloadRecord) {
  ASSERT_OK_AND_ASSIGN(RecordLocation loc, store_->Place(Slice()));
  EXPECT_EQ(loc.len, 0u);
  ASSERT_OK_AND_ASSIGN(auto data, store_->Read(loc));
  EXPECT_TRUE(data.empty());
}

// Random places, replaces and removes straddling the inline limit (~470
// bytes at 512-byte pages), so replacements move records between a slot
// and an overflow chain. Every kept location reads back its payload,
// before and after a reopen that rebuilds the free-space map from the
// heap chain, and the reopened store fills existing pages first.
TEST_F(RecordStoreTest, LocationsReadBackThroughChurnAndReopen) {
  std::mt19937 rng(22);
  auto payload = [&rng](size_t tag) {
    const size_t size = rng() % 3 == 0 ? 480 + rng() % 1200 : rng() % 400;
    return std::string(size, static_cast<char>('a' + tag % 26));
  };
  std::vector<std::pair<RecordLocation, std::string>> model;
  auto expect_model = [&]() {
    for (const auto& [loc, bytes] : model) {
      EXPECT_EQ(ReadString(loc), bytes)
          << "page " << loc.page << " slot " << loc.slot;
    }
  };
  for (int batch = 0; batch < 8; ++batch) {
    for (int op = 0; op < 40; ++op) {
      const unsigned pick = rng() % 10;
      if (model.empty() || pick < 4) {
        std::string p = payload(model.size());
        ASSERT_OK_AND_ASSIGN(RecordLocation loc, store_->Place(Slice(p)));
        model.emplace_back(loc, std::move(p));
        continue;
      }
      auto victim = model.begin() + rng() % model.size();
      if (pick < 8) {
        std::string p = payload(victim - model.begin());
        ASSERT_OK_AND_ASSIGN(victim->first,
                             store_->Replace(victim->first, Slice(p)));
        victim->second = std::move(p);
      } else {
        ASSERT_LAXML_OK(store_->Remove(victim->first));
        model.erase(victim);
      }
    }
    expect_model();
  }
  EXPECT_GT(store_->stats().overflow_records, 0u);
  const PageId head = store_->data_head();
  store_.reset();
  ASSERT_OK_AND_ASSIGN(store_, RecordStore::Open(pager_.get(), head));
  expect_model();
  const uint64_t pages_before = store_->stats().data_pages;
  ASSERT_OK_AND_ASSIGN(RecordLocation fresh,
                       store_->Place(Slice(std::string("tiny"))));
  EXPECT_EQ(ReadString(fresh), "tiny");
  EXPECT_EQ(store_->stats().data_pages, pages_before);
}

}  // namespace
}  // namespace laxml
