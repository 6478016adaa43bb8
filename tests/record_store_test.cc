// Record store tests: inline and overflow records, updates that
// relocate, deletion with page release, partial reads, and reopen.

#include "storage/record_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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
    auto store = RecordStore::Create(pager_.get());
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
  }

  std::string ReadString(RecordId id) {
    auto r = store_->Read(id);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::string(r->begin(), r->end()) : "";
  }

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<RecordStore> store_;
};

TEST_F(RecordStoreTest, SmallRecordsRoundTrip) {
  ASSERT_OK_AND_ASSIGN(RecordId a, store_->Insert(Slice(std::string("aa"))));
  ASSERT_OK_AND_ASSIGN(RecordId b,
                       store_->Insert(Slice(std::string("bbbb"))));
  EXPECT_NE(a, b);
  EXPECT_EQ(ReadString(a), "aa");
  EXPECT_EQ(ReadString(b), "bbbb");
  ASSERT_OK_AND_ASSIGN(RecordLocation loc, store_->Locate(b));
  EXPECT_EQ(loc.len, 4u);
}

TEST_F(RecordStoreTest, LargeRecordUsesOverflowChain) {
  std::string big(5000, 'B');  // ~10 pages at 512B
  for (size_t i = 0; i < big.size(); ++i) big[i] = 'A' + (i % 26);
  ASSERT_OK_AND_ASSIGN(RecordId id, store_->Insert(Slice(big)));
  EXPECT_EQ(ReadString(id), big);
  EXPECT_GE(store_->stats().overflow_records, 1u);
}

TEST_F(RecordStoreTest, ReadPrefixAndSlice) {
  std::string data;
  for (int i = 0; i < 3000; ++i) data.push_back('a' + (i % 26));
  ASSERT_OK_AND_ASSIGN(RecordId id, store_->Insert(Slice(data)));
  ASSERT_OK_AND_ASSIGN(RecordSlice prefix, store_->PinSlice(id, 0, 10));
  EXPECT_EQ(prefix.bytes().ToString(), data.substr(0, 10));
  // Overflow pieces hold 512 - 20 (page header) - 4 (next link) bytes. A
  // slice inside one piece lends the pinned frame; one that crosses a
  // piece boundary (470 + 40 > 488, 960 + 40 > 976) is a copy.
  constexpr size_t kPiece = 488;
  for (size_t off : {0ul, 100ul, 470ul, 490ul, 500ul, 960ul, 1500ul, 2990ul}) {
    ASSERT_OK_AND_ASSIGN(RecordSlice slice, store_->PinSlice(id, off, 40));
    EXPECT_EQ(slice.bytes().ToString(), data.substr(off, 40))
        << "offset " << off;
    const size_t last = std::min(off + 40, data.size()) - 1;
    EXPECT_EQ(slice.borrowed(), off / kPiece == last / kPiece)
        << "offset " << off;
  }
  // An inline record always lends its page.
  ASSERT_OK_AND_ASSIGN(RecordId small,
                       store_->Insert(Slice(std::string("inline bytes"))));
  ASSERT_OK_AND_ASSIGN(RecordSlice word, store_->PinSlice(small, 7, 5));
  EXPECT_TRUE(word.borrowed());
  EXPECT_EQ(word.bytes().ToString(), "bytes");
  // Past-the-end slice is empty; over-long slice is clamped at the
  // record end, in an overflow record and in an inline one.
  ASSERT_OK_AND_ASSIGN(auto past, store_->PinSlice(id, 5000, 10));
  EXPECT_EQ(past.size(), 0u);
  ASSERT_OK_AND_ASSIGN(auto clamped, store_->PinSlice(id, 2995, 100));
  EXPECT_EQ(clamped.bytes().ToString(), data.substr(2995));
  ASSERT_OK_AND_ASSIGN(auto tail, store_->PinSlice(small, 10, 100));
  EXPECT_EQ(tail.bytes().ToString(), "es");
  // A slice covering the whole record copies every piece.
  ASSERT_OK_AND_ASSIGN(auto whole, store_->PinSlice(id, 0, SIZE_MAX));
  EXPECT_FALSE(whole.borrowed());
  EXPECT_EQ(whole.bytes().ToString(), data);
  EXPECT_TRUE(store_->PinSlice(id + 100, 0, 1).status().IsNotFound());
}

TEST_F(RecordStoreTest, UpdateInPlaceAndRelocating) {
  ASSERT_OK_AND_ASSIGN(RecordId id,
                       store_->Insert(Slice(std::string("start"))));
  ASSERT_LAXML_OK(store_->Update(id, Slice(std::string("st"))));
  EXPECT_EQ(ReadString(id), "st");
  std::string big(2000, 'G');
  ASSERT_LAXML_OK(store_->Update(id, Slice(big)));
  EXPECT_EQ(ReadString(id), big);
  ASSERT_LAXML_OK(store_->Update(id, Slice(std::string("small again"))));
  EXPECT_EQ(ReadString(id), "small again");
}

TEST_F(RecordStoreTest, DeleteRemovesAndFreesPages) {
  std::string big(4000, 'D');
  ASSERT_OK_AND_ASSIGN(RecordId id, store_->Insert(Slice(big)));
  uint32_t used_before = pager_->page_count() - pager_->free_page_count();
  ASSERT_LAXML_OK(store_->Delete(id));
  EXPECT_TRUE(store_->Read(id).status().IsNotFound());
  EXPECT_TRUE(store_->Delete(id).IsNotFound());
  uint32_t used_after = pager_->page_count() - pager_->free_page_count();
  EXPECT_LT(used_after, used_before);  // overflow pages returned
}

TEST_F(RecordStoreTest, IdsAreNeverReused) {
  ASSERT_OK_AND_ASSIGN(RecordId a, store_->Insert(Slice(std::string("x"))));
  ASSERT_LAXML_OK(store_->Delete(a));
  ASSERT_OK_AND_ASSIGN(RecordId b, store_->Insert(Slice(std::string("y"))));
  EXPECT_GT(b, a);
}

TEST_F(RecordStoreTest, ManyRecordsAcrossPages) {
  std::vector<RecordId> ids;
  for (int i = 0; i < 300; ++i) {
    std::string payload = "record-" + std::to_string(i) + "-" +
                          std::string(i % 50, 'p');
    ASSERT_OK_AND_ASSIGN(RecordId id, store_->Insert(Slice(payload)));
    ids.push_back(id);
  }
  EXPECT_GT(store_->stats().data_pages, 5u);
  for (int i = 0; i < 300; ++i) {
    std::string expected = "record-" + std::to_string(i) + "-" +
                           std::string(i % 50, 'p');
    EXPECT_EQ(ReadString(ids[i]), expected);
  }
  EXPECT_TRUE(store_->Exists(ids[17]));
}

TEST_F(RecordStoreTest, StateSurvivesReopen) {
  std::vector<RecordId> ids;
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(
        RecordId id,
        store_->Insert(Slice("v" + std::to_string(i))));
    ids.push_back(id);
  }
  ASSERT_LAXML_OK(store_->Delete(ids[5]));
  RecordStoreState state = store_->state();
  store_.reset();

  ASSERT_OK_AND_ASSIGN(store_, RecordStore::Open(pager_.get(), state));
  EXPECT_EQ(ReadString(ids[0]), "v0");
  EXPECT_EQ(ReadString(ids[39]), "v39");
  EXPECT_TRUE(store_->Read(ids[5]).status().IsNotFound());
  // Free space map was rebuilt: inserts land on existing pages.
  uint64_t pages_before = store_->stats().data_pages;
  ASSERT_OK_AND_ASSIGN(RecordId fresh,
                       store_->Insert(Slice(std::string("tiny"))));
  EXPECT_EQ(ReadString(fresh), "tiny");
  EXPECT_EQ(store_->stats().data_pages, pages_before);
}

TEST_F(RecordStoreTest, PageOfReportsAnchor) {
  ASSERT_OK_AND_ASSIGN(RecordId id, store_->Insert(Slice(std::string("z"))));
  ASSERT_OK_AND_ASSIGN(PageId page, store_->PageOf(id));
  EXPECT_NE(page, kInvalidPageId);
  EXPECT_NE(page, 0u);
}

TEST_F(RecordStoreTest, EmptyPayloadRecord) {
  ASSERT_OK_AND_ASSIGN(RecordId id, store_->Insert(Slice()));
  ASSERT_OK_AND_ASSIGN(auto data, store_->Read(id));
  EXPECT_TRUE(data.empty());
  ASSERT_OK_AND_ASSIGN(RecordLocation loc, store_->Locate(id));
  EXPECT_EQ(loc.len, 0u);
}

// Every entry of the directory tree equals the resident lookup of its
// id, both hold one entry per live record, and every record reads back.
void ExpectDirectoryMatches(const RecordStore& store,
                            const std::map<RecordId, std::string>& model) {
  size_t tree_entries = 0;
  ASSERT_LAXML_OK(store.ForEachRecord([&](RecordId id, PageId page,
                                          uint16_t slot, uint16_t kind,
                                          uint32_t len) {
    ++tree_entries;
    auto resident = store.Locate(id);
    EXPECT_TRUE(resident.ok()) << "record " << id;
    if (resident.ok()) {
      EXPECT_EQ(*resident, (RecordLocation{page, slot, kind, len}))
          << "record " << id;
    }
    return true;
  }));
  EXPECT_EQ(tree_entries, model.size());
  EXPECT_EQ(store.record_count(), model.size());
  for (const auto& [id, payload] : model) {
    auto bytes = store.Read(id);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(std::string(bytes->begin(), bytes->end()), payload)
        << "record " << id;
  }
}

TEST_F(RecordStoreTest, ResidentDirectoryMatchesTreeThroughChurnAndReopen) {
  std::mt19937 rng(22);
  // Sizes straddle the inline limit (~470 bytes at 512-byte pages), so
  // updates move records between a slot and an overflow chain.
  auto payload = [&rng](RecordId tag) {
    const size_t size = rng() % 3 == 0 ? 480 + rng() % 1200 : rng() % 400;
    return std::string(size, static_cast<char>('a' + tag % 26));
  };
  std::map<RecordId, std::string> model;
  for (int batch = 0; batch < 8; ++batch) {
    for (int op = 0; op < 40; ++op) {
      const unsigned pick = rng() % 10;
      if (model.empty() || pick < 4) {
        std::string p = payload(model.size());
        ASSERT_OK_AND_ASSIGN(RecordId id, store_->Insert(Slice(p)));
        model[id] = std::move(p);
        continue;
      }
      auto victim = model.begin();
      std::advance(victim, rng() % model.size());
      if (pick < 8) {
        std::string p = payload(victim->first);
        ASSERT_LAXML_OK(store_->Update(victim->first, Slice(p)));
        victim->second = std::move(p);
      } else {
        ASSERT_LAXML_OK(store_->Delete(victim->first));
        model.erase(victim);
      }
    }
    ExpectDirectoryMatches(*store_, model);
  }
  EXPECT_GT(store_->stats().overflow_records, 0u);
  RecordStoreState state = store_->state();
  store_.reset();
  ASSERT_OK_AND_ASSIGN(store_, RecordStore::Open(pager_.get(), state));
  ExpectDirectoryMatches(*store_, model);
}

}  // namespace
}  // namespace laxml
