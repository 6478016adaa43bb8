// File-backed persistence: reopen round trips, index-mode pinning,
// checkpointing, and durability of every structure (ranges, indexes, id
// counters).

#include <gtest/gtest.h>

#include "store/store.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::MustSerialize;
using testing::TempFile;

class StorePersistenceTest : public ::testing::TestWithParam<IndexMode> {
 protected:
  StoreOptions Options() const {
    StoreOptions options;
    options.index_mode = GetParam();
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
  other.index_mode = GetParam() == IndexMode::kFullIndex
                         ? IndexMode::kRangeIndex
                         : IndexMode::kFullIndex;
  auto reopened = Store::Open(tmp.path(), other);
  EXPECT_TRUE(reopened.status().IsInvalidArgument());
}

// The two lazy modes share one on-disk image (the Partial Index lives
// in memory), so a file written under either reopens under the other.
TEST(StoreLazyReopenTest, EitherLazyModeReopensTheOther) {
  for (IndexMode created :
       {IndexMode::kRangeIndex, IndexMode::kRangeWithPartial}) {
    const IndexMode reopened = created == IndexMode::kRangeIndex
                                   ? IndexMode::kRangeWithPartial
                                   : IndexMode::kRangeIndex;
    SCOPED_TRACE(IndexModeName(created));
    TempFile tmp("lazyreopen");
    StoreOptions options;
    options.pager.page_size = 512;
    options.pager.pool_frames = 32;
    options.index_mode = created;
    {
      ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
      ASSERT_LAXML_OK(store
                          ->InsertTopLevel(MustFragment(
                              "<db><a>1</a><b><c>2</c></b></db>"))
                          .status());
    }  // destructor syncs
    options.index_mode = reopened;
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    const NodeId c = 5;  // db=1, a=2, a's text=3, b=4, c=5
    for (int i = 0; i < 2; ++i) {
      ASSERT_OK_AND_ASSIGN(TokenSequence node, store->Read(c));
      EXPECT_EQ(MustSerialize(node), "<c>2</c>");
    }
    if (reopened == IndexMode::kRangeWithPartial) {
      EXPECT_GE(store->partial_index().stats().hits, 1u);
    } else {
      EXPECT_EQ(store->partial_index().stats().lookups, 0u);
    }
    ASSERT_LAXML_OK(store->CheckIntegrity());
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

INSTANTIATE_TEST_SUITE_P(
    AllIndexModes, StorePersistenceTest,
    ::testing::Values(IndexMode::kFullIndex, IndexMode::kRangeIndex,
                      IndexMode::kRangeWithPartial),
    [](const ::testing::TestParamInfo<IndexMode>& info) {
      switch (info.param) {
        case IndexMode::kFullIndex:
          return "FullIndex";
        case IndexMode::kRangeIndex:
          return "RangeIndex";
        case IndexMode::kRangeWithPartial:
          return "RangeWithPartial";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace laxml
