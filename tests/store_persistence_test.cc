// File-backed persistence: reopen round trips, index-mode pinning and
// decoding, the store format version, checkpointing, and durability of
// every structure (ranges, indexes, id counters).

#include <gtest/gtest.h>

#include <algorithm>

#include "audit/fsck.h"
#include "common/slice.h"
#include "storage/pager.h"
#include "store/range.h"
#include "store/store.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::MustSerialize;
using testing::ReadWholeFile;
using testing::TempFile;

class StorePersistenceTest
    : public ::testing::TestWithParam<testing::IndexConfig> {
 protected:
  StoreOptions Options() const {
    StoreOptions options;
    GetParam().ApplyTo(&options);
    options.pager.page_size = 512;
    options.pager.pool_frames = 32;
    return options;
  }
};

TEST_P(StorePersistenceTest, ContentSurvivesReopen) {
  TempFile tmp("persist");
  NodeId hub;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), Options()));
    ASSERT_LAXML_OK(
        store->InsertTopLevel(MustFragment("<db><t1/><t2/></db>")).status());
    ASSERT_OK_AND_ASSIGN(hub,
                         store->InsertIntoLast(1, MustFragment("<hub/>")));
    ASSERT_LAXML_OK(
        store->InsertIntoLast(hub, MustFragment("<leaf>v</leaf>")).status());
  }  // destructor syncs
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), Options()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(MustSerialize(all),
              "<db><t1/><t2/><hub><leaf>v</leaf></hub></db>");
    ASSERT_LAXML_OK(store->CheckIntegrity());
    // Id counter continues where it left off (never reused).
    ASSERT_OK_AND_ASSIGN(NodeId fresh,
                         store->InsertIntoLast(hub, MustFragment("<n/>")));
    EXPECT_GT(fresh, hub);
    // Reads by id work through the rebuilt indexes.
    ASSERT_OK_AND_ASSIGN(TokenSequence leaf, store->Read(hub + 1));
    EXPECT_EQ(MustSerialize(leaf), "<leaf>v</leaf>");
  }
}

TEST_P(StorePersistenceTest, IndexModeIsPinnedToTheFile) {
  TempFile tmp("modepin");
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), Options()));
    ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<a/>")).status());
  }
  StoreOptions other = Options();
  other.index_mode = GetParam().index_mode == IndexMode::kFullIndex
                         ? IndexMode::kRangeIndex
                         : IndexMode::kFullIndex;
  auto reopened = Store::Open(tmp.path(), other);
  EXPECT_TRUE(reopened.status().IsInvalidArgument());
}

// Overwrites the u32 at `offset` in a closed store's meta blob: 4 is
// the store version, 8 the index-mode word.
void RewriteMetaWord(const std::string& path, const PagerOptions& options,
                     size_t offset, uint32_t word) {
  ASSERT_OK_AND_ASSIGN(auto pager, Pager::OpenFile(path, options));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> meta, pager->ReadMeta());
  ASSERT_GE(meta.size(), offset + 4);
  EncodeFixed32(meta.data() + offset, word);
  ASSERT_LAXML_OK(pager->WriteMeta(Slice(meta)));
  ASSERT_LAXML_OK(pager->Sync());
}

// The Partial Index lives in memory, so a lazy file reopens under any
// capacity: one written without the memo reopens with it and one
// written with it reopens without.
TEST(StoreModeWordTest, LazyStoreReopensUnderEitherCapacity) {
  for (size_t created : {size_t{0}, size_t{1} << 16}) {
    const size_t reopened = created == 0 ? size_t{1} << 16 : 0;
    SCOPED_TRACE("capacity " + std::to_string(created) + " -> " +
                 std::to_string(reopened));
    TempFile tmp("lazyreopen");
    StoreOptions options;
    options.pager.page_size = 512;
    options.pager.pool_frames = 32;
    options.partial_index_capacity = created;
    {
      ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
      ASSERT_LAXML_OK(store
                          ->InsertTopLevel(MustFragment(
                              "<db><a>1</a><b><c>2</c></b></db>"))
                          .status());
    }  // destructor syncs
    options.partial_index_capacity = reopened;
    {
      ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
      const NodeId c = 5;  // db=1, a=2, a's text=3, b=4, c=5
      for (int i = 0; i < 2; ++i) {
        ASSERT_OK_AND_ASSIGN(TokenSequence node, store->Read(c));
        EXPECT_EQ(MustSerialize(node), "<c>2</c>");
      }
      if (reopened > 0) {
        EXPECT_GE(store->partial_index().stats().hits, 1u);
      } else {
        EXPECT_EQ(store->partial_index().stats().lookups, 0u);
      }
      ASSERT_LAXML_OK(store->CheckIntegrity());
    }
    FsckOutcome fsck = RunFsck(tmp.path());
    EXPECT_EQ(fsck.exit_code, 0) << fsck.error;
  }
}

// Store format version 5: every range payload is in the one stored token
// form, and each range's one persistent entry is its 56-byte RangeMeta,
// payload location included and its last byte reserved zero, with no
// record-directory tree. Versions 2 to 4 are refused, not migrated: a
// version-4 range may hold inline-only names, which would decode as
// wrong names without an error.
TEST(StoreFormatTest, NewStoresAreVersion5AndOlderOnesAreRefused) {
  TempFile tmp("format");
  StoreOptions options;
  options.pager.page_size = 512;
  std::vector<RangeMeta> chain;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    ASSERT_OK_AND_ASSIGN(NodeId root, store->LoadXml("<db><a>1</a></db>"));
    ASSERT_LAXML_OK(store->InsertIntoLast(root, MustFragment("<b>2</b>")));
    const RangeManager& ranges = store->range_manager();
    EXPECT_EQ(ranges.meta_tree().value_size(), 56u);
    ASSERT_LAXML_OK(ranges.ForEachRange([&](const RangeMeta& meta) {
      chain.push_back(meta);
      return true;
    }));
  }  // destructor syncs
  ASSERT_GE(chain.size(), 2u);
  {
    ASSERT_OK_AND_ASSIGN(auto pager, Pager::OpenFile(tmp.path(),
                                                     options.pager));
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> meta, pager->ReadMeta());
    EXPECT_EQ(DecodeFixed32(meta.data() + 4), 5u);
  }
  // Each range's meta value, location and all, is in the file verbatim,
  // its reserved last byte zero.
  const std::vector<uint8_t> bytes = ReadWholeFile(tmp.path());
  for (const RangeMeta& meta : chain) {
    uint8_t value[kRangeMetaValueSize];
    EncodeRangeMeta(meta, value);
    EXPECT_EQ(value[kRangeMetaValueSize - 1], 0u) << "range " << meta.id;
    EXPECT_NE(std::search(bytes.begin(), bytes.end(), value,
                          value + kRangeMetaValueSize),
              bytes.end())
        << "range " << meta.id;
    EXPECT_NE(meta.page, kInvalidPageId) << "range " << meta.id;
  }
  for (uint32_t version : {2u, 3u, 4u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    RewriteMetaWord(tmp.path(), options.pager, 4, version);
    auto reopened = Store::Open(tmp.path(), options);
    ASSERT_TRUE(reopened.status().IsNotSupported())
        << reopened.status().ToString();
    EXPECT_NE(reopened.status().message().find(
                  "store version " + std::to_string(version)),
              std::string::npos)
        << reopened.status().ToString();
    FsckOutcome fsck = RunFsck(tmp.path());
    EXPECT_EQ(fsck.exit_code, 2);
    EXPECT_NE(fsck.error.find("store version " + std::to_string(version)),
              std::string::npos)
        << fsck.error;
  }
  RewriteMetaWord(tmp.path(), options.pager, 4, 5);
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  EXPECT_EQ(MustSerialize(all), "<db><a>1</a><b>2</b></db>");
}

// Word 2 was the lazy stamp of stores written while the Partial Index
// was a mode of its own. Those stores are version 3, refused before
// their mode is read, so in a version-5 blob it is as unknown as 7.
TEST(StoreModeWordTest, UnknownModeWordIsCorruption) {
  for (uint32_t word : {2u, 7u}) {
    SCOPED_TRACE("word " + std::to_string(word));
    TempFile tmp("badmode");
    StoreOptions options;
    options.pager.page_size = 512;
    {
      ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
      ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<a/>")).status());
    }
    RewriteMetaWord(tmp.path(), options.pager, 8, word);
    for (IndexMode mode : {IndexMode::kFullIndex, IndexMode::kRangeIndex}) {
      options.index_mode = mode;
      auto reopened = Store::Open(tmp.path(), options);
      EXPECT_TRUE(reopened.status().IsCorruption())
          << reopened.status().ToString();
    }
    EXPECT_EQ(RunFsck(tmp.path()).exit_code, 1);
  }
}

TEST_P(StorePersistenceTest, SyncIsACheckpoint) {
  TempFile tmp("sync");
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), Options()));
  ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<x/>")).status());
  ASSERT_LAXML_OK(store->Sync());
  // A crash right after sync loses nothing.
  store->TestOnlyCrash();
  store.reset();
  ASSERT_OK_AND_ASSIGN(store, Store::Open(tmp.path(), Options()));
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  EXPECT_EQ(MustSerialize(all), "<x/>");
}

TEST_P(StorePersistenceTest, CrashWithoutSyncLosesUncheckpointedWork) {
  // Without the WAL, a crash rolls back to the last checkpoint — this
  // pins down the semantics the WAL tests then improve upon.
  TempFile tmp("crashy");
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), Options()));
  ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<kept/>")).status());
  ASSERT_LAXML_OK(store->Sync());
  ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<lost/>")).status());
  store->TestOnlyCrash();
  store.reset();
  ASSERT_OK_AND_ASSIGN(store, Store::Open(tmp.path(), Options()));
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  EXPECT_EQ(MustSerialize(all), "<kept/>");
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST_P(StorePersistenceTest, LargeDocumentRoundTrips) {
  TempFile tmp("bigdoc");
  std::string xml;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), Options()));
    SequenceBuilder b;
    b.BeginElement("big");
    for (int i = 0; i < 500; ++i) {
      b.LeafElement("e" + std::to_string(i % 10),
                    "value-" + std::to_string(i));
    }
    b.End();
    TokenSequence doc = b.Build();
    xml = MustSerialize(doc);
    ASSERT_LAXML_OK(store->InsertTopLevel(doc).status());
  }
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), Options()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(MustSerialize(all), xml);
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexModes, StorePersistenceTest,
                         ::testing::ValuesIn(testing::kIndexConfigs),
                         testing::IndexConfigName);

}  // namespace
}  // namespace laxml
