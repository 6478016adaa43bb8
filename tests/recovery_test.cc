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
  options.index_mode = IndexMode::kRangeWithPartial;
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
