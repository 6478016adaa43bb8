// Crash-recovery tests: operations journaled in the WAL are replayed on
// reopen, checkpoints truncate the journal, and recovery is idempotent.

#include <gtest/gtest.h>

#include "store/store.h"
#include "test_util.h"
#include "wal/wal.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::MustSerialize;
using testing::TempFile;

StoreOptions WalOptions() {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  options.enable_wal = true;
  options.pager.page_size = 512;
  options.pager.pool_frames = 64;
  return options;
}

TEST(RecoveryTest, CrashAfterOpsReplaysFromWal) {
  TempFile tmp("recov");
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_LAXML_OK(
        store->InsertTopLevel(MustFragment("<db><a/></db>")).status());
    ASSERT_LAXML_OK(
        store->InsertIntoLast(1, MustFragment("<b>two</b>")).status());
    ASSERT_LAXML_OK(store->DeleteNode(2));  // <a/>
    store->TestOnlyCrash();
  }
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(MustSerialize(all), "<db><b>two</b></db>");
    ASSERT_LAXML_OK(store->CheckIntegrity());
    // Replayed id assignment is identical: next insert continues the
    // sequence.
    ASSERT_OK_AND_ASSIGN(NodeId next,
                         store->InsertIntoLast(1, MustFragment("<c/>")));
    EXPECT_EQ(next, 5u);  // db=1, a=2, b=3, "two"=4 -> next is 5
  }
}

TEST(RecoveryTest, RecoveryCheckpointsSoSecondOpenIsClean) {
  TempFile tmp("recov2");
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<x/>")).status());
    store->TestOnlyCrash();
  }
  {
    // First reopen replays + checkpoints (truncates the WAL).
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(CountNodeBegins(all), 1u);
    store->TestOnlyCrash();  // crash again immediately
  }
  {
    // Nothing re-replayed; the state is exactly one <x/>.
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(MustSerialize(all), "<x/>");
  }
}

TEST(RecoveryTest, MixedCheckpointAndWalWork) {
  TempFile tmp("recov3");
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<base/>")).status());
    ASSERT_LAXML_OK(store->Sync());  // checkpoint: WAL now empty
    ASSERT_LAXML_OK(
        store->InsertIntoLast(1, MustFragment("<post-ckpt/>")).status());
    store->TestOnlyCrash();
  }
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(MustSerialize(all), "<base><post-ckpt/></base>");
  }
}

TEST(RecoveryTest, CleanCloseLeavesOnlyCheckpointHeader) {
  TempFile tmp("recov4");
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<neat/>")).status());
  }  // destructor = Sync = checkpoint
  // A checkpoint truncates the log and stamps a fresh epoch header, so a
  // cleanly closed store's WAL holds exactly that one record.
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(tmp.path() + ".wal"));
  ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].op, WalOp::kCheckpoint);
}

TEST(RecoveryTest, ManyOpsReplayDeterministically) {
  TempFile tmp("recov5");
  std::string expected;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<log/>")).status());
    for (int i = 0; i < 60; ++i) {
      ASSERT_LAXML_OK(
          store->InsertIntoLast(
                   1, MustFragment("<e>" + std::to_string(i) + "</e>"))
              .status());
    }
    ASSERT_LAXML_OK(store->ReplaceContent(
                             1, MustFragment("<compacted>61 entries</compacted>"))
                        .status());
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    expected = MustSerialize(all);
    store->TestOnlyCrash();
  }
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(MustSerialize(all), expected);
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }
}

// One record of every Table-1 kind replays through Store::Apply, and so
// do two records whose ops failed when first run: a caller error is
// journaled, fails the same way on replay, and does not abort recovery.
TEST(RecoveryTest, EveryKindAndFailedOpsReplay) {
  TempFile tmp("recov_kinds");
  std::string expected;
  uint64_t high_water = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    // db=1 a=2 "x"=3 b=4 c=5
    ASSERT_OK_AND_ASSIGN(
        NodeId db, store->Apply(WalOp::kInsertTopLevel, kInvalidNodeId,
                                MustFragment("<db><a>x</a><b/><c/></db>")));
    EXPECT_EQ(db, 1u);
    ASSERT_LAXML_OK(
        store->Apply(WalOp::kInsertBefore, 4, MustFragment("<p/>")).status());
    ASSERT_LAXML_OK(
        store->Apply(WalOp::kInsertAfter, 4, MustFragment("<q/>")).status());
    ASSERT_LAXML_OK(
        store->Apply(WalOp::kInsertIntoFirst, 1, MustFragment("<f/>"))
            .status());
    ASSERT_OK_AND_ASSIGN(
        NodeId l,
        store->Apply(WalOp::kInsertIntoLast, 1, MustFragment("<l>y</l>")));
    ASSERT_LAXML_OK(
        store->Apply(WalOp::kReplaceNode, 5, MustFragment("<r/>")).status());
    ASSERT_OK_AND_ASSIGN(NodeId none,
                         store->Apply(WalOp::kReplaceContent, 2, {}));
    EXPECT_EQ(none, kInvalidNodeId);
    ASSERT_LAXML_OK(store->Apply(WalOp::kDeleteNode, 4, {}).status());

    auto missing = store->Apply(WalOp::kDeleteNode, 999, {});
    EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
    auto into_text =
        store->Apply(WalOp::kInsertIntoFirst, l + 1, MustFragment("<z/>"));
    EXPECT_TRUE(into_text.status().IsInvalidArgument())
        << into_text.status().ToString();

    ASSERT_OK_AND_ASSIGN(expected, store->SerializeToXml());
    EXPECT_EQ(expected, "<db><f/><a/><p/><q/><r/><l>y</l></db>");
    high_water = store->node_high_water();
    store->TestOnlyCrash();
  }
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(tmp.path() + ".wal"));
    ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
    std::vector<WalOp> ops;
    for (const WalRecord& rec : records) ops.push_back(rec.op);
    EXPECT_EQ(ops, (std::vector<WalOp>{
                       WalOp::kCheckpoint, WalOp::kInsertTopLevel,
                       WalOp::kInsertBefore, WalOp::kInsertAfter,
                       WalOp::kInsertIntoFirst, WalOp::kInsertIntoLast,
                       WalOp::kReplaceNode, WalOp::kReplaceContent,
                       WalOp::kDeleteNode, WalOp::kDeleteNode,
                       WalOp::kInsertIntoFirst}));
  }
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    EXPECT_TRUE(store->replayed_wal_tail());
    ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
    EXPECT_EQ(xml, expected);
    EXPECT_EQ(store->node_high_water(), high_water);
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }
}

TEST(RecoveryTest, InMemoryStoreRejectsWal) {
  auto opened = Store::OpenInMemory(WalOptions());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
}

TEST(RecoveryTest, SyncPolicyWithoutWalIsRejected) {
  for (WalSyncMode mode :
       {WalSyncMode::kEveryCommit, WalSyncMode::kGroupCommit}) {
    StoreOptions options;
    options.wal_sync = mode;  // enable_wal left off
    EXPECT_TRUE(Store::OpenInMemory(options).status().IsInvalidArgument())
        << WalSyncModeName(mode);
    TempFile tmp("sync_without_wal");
    EXPECT_TRUE(
        Store::Open(tmp.path(), options).status().IsInvalidArgument())
        << WalSyncModeName(mode);
    // Refused before anything is created on disk.
    EXPECT_EQ(testing::FileSize(tmp.path()), -1);
    options.enable_wal = true;
    EXPECT_LAXML_OK(Store::Open(tmp.path(), options));
  }
}

}  // namespace
}  // namespace laxml
