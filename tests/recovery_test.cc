// Crash-recovery tests: operations journaled in the WAL are replayed on
// reopen, checkpoints truncate the journal, and recovery is idempotent.
// The log file is pre-zeroed and recycled, so the last group below pins
// its invariant: a record written at the logical end is never followed
// by a stale record from an earlier epoch or a torn batch.

#include <gtest/gtest.h>
#include <unistd.h>

#include "audit/fsck.h"
#include "storage/faulty_file.h"
#include "store/store.h"
#include "test_util.h"
#include "wal/wal.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::FileSize;
using testing::FlipBit;
using testing::MustFragment;
using testing::MustSerialize;
using testing::ReadWholeFile;
using testing::TempFile;
using testing::WalLogicalEnd;

StoreOptions WalOptions() {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  options.enable_wal = true;
  options.pager.page_size = 512;
  options.pager.pool_frames = 64;
  return options;
}

/// Appends `n` InsertIntoLast records of one length under node 1.
void InsertChildren(Store* store, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_LAXML_OK(store->InsertIntoLast(1, MustFragment("<n>x</n>")).status());
  }
}

std::string Children(int n) {
  std::string xml = "<db>";
  for (int i = 0; i < n; ++i) xml += "<n>x</n>";
  return xml + "</db>";
}

/// The encoded length of the checkpoint-epoch header every log opens with.
long CheckpointHeaderBytes() {
  WalRecord header;
  header.op = WalOp::kCheckpoint;
  std::vector<uint8_t> framed;
  EncodeWalRecord(header, &framed);
  return static_cast<long>(framed.size());
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

// A recovering open decodes the log once: the trim that finds its end
// hands the records it verified to replay. The log's other reads are
// the zero checks of its two resets, the trim's past the last record
// and the recovery checkpoint's over the used prefix, one chunk each.
TEST(RecoveryTest, RecoveringOpenReadsTheLogOnce) {
  TempFile tmp("recov_reads");
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<db/>")).status());
    InsertChildren(store.get(), 5);
    store->TestOnlyCrash();
  }
  FaultyFile* pages = nullptr;
  FaultyFile* wal = nullptr;
  StoreOptions options = WalOptions();
  options.file_wrapper = WrapInFaultyFiles(&pages, &wal);
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
  ASSERT_NE(wal, nullptr);
  EXPECT_TRUE(store->replayed_wal_tail());
  EXPECT_EQ(wal->op_count(FaultOp::kRead), 3u);
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  EXPECT_EQ(MustSerialize(all), Children(5));
  EXPECT_LAXML_OK(store->CheckIntegrity());
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
  // cleanly closed store's WAL holds exactly that one record, and the
  // close gave the file's zero padding back.
  EXPECT_EQ(FileSize(tmp.path() + ".wal"), CheckpointHeaderBytes());
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

TEST(RecoveryTest, ResetLogReplaysOnlyTheNewEpoch) {
  // The checkpoint reset must zero the old epoch: the new epoch's records
  // overwrite the old ones at the same offsets, and fewer of them must
  // not leave old records decoding behind them.
  TempFile tmp("recov_epoch");
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<db/>")).status());
    ASSERT_LAXML_OK(store->Sync());
    InsertChildren(store.get(), 8);
    ASSERT_LAXML_OK(store->Sync());  // absorbs the 8; resets the log
    InsertChildren(store.get(), 3);
    store->TestOnlyCrash();
  }
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
  ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
  EXPECT_EQ(xml, Children(11));
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST(RecoveryTest, TornBatchTailNeverReplaysAfterRecovery) {
  // A group-commit batch reaches the file out of order: its first record
  // is torn, the later ones are intact. Recovery must zero them all, or
  // the next commit of the same length re-links them into the chain.
  TempFile tmp("recov_batch");
  StoreOptions options = WalOptions();
  options.wal_sync = WalSyncMode::kGroupCommit;
  const std::string wal_path = tmp.path() + ".wal";
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<db/>")).status());
    ASSERT_LAXML_OK(store->Sync());
    InsertChildren(store.get(), 3);  // appended, never waited on
    store->TestOnlyCrash();
  }
  const long header = CheckpointHeaderBytes();
  FlipBit(wal_path, header + 10);  // inside the batch's first record
  ASSERT_EQ(WalLogicalEnd(wal_path), header);
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
    EXPECT_EQ(xml, "<db/>");
    InsertChildren(store.get(), 1);  // lands where the torn record was
    store->TestOnlyCrash();
  }
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
  ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
  EXPECT_EQ(xml, Children(1));
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST(RecoveryTest, UnpaddedLogFromAppendOnlyWritersReplays) {
  // Logs written before the file was pre-zeroed end at their last record
  // (or inside a torn one), with no padding. They replay as before, and
  // the store keeps committing into them.
  for (bool torn : {false, true}) {
    SCOPED_TRACE(torn ? "torn tail" : "clean tail");
    TempFile tmp(torn ? "recov_old_torn" : "recov_old");
    const std::string wal_path = tmp.path() + ".wal";
    {
      ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
      ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<db/>")).status());
      InsertChildren(store.get(), 4);
      store->TestOnlyCrash();
    }
    // An append-only log ends at its last byte; a crash cut it short.
    const long end = WalLogicalEnd(wal_path);
    ASSERT_EQ(::truncate(wal_path.c_str(), torn ? end - 3 : end), 0);
    const int survivors = torn ? 3 : 4;
    {
      ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
      ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
      EXPECT_EQ(xml, Children(survivors));
      InsertChildren(store.get(), 2);
      store->TestOnlyCrash();
    }
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
    EXPECT_EQ(xml, Children(survivors + 2));
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }
}

TEST(RecoveryTest, ReadOnlyOpenAndFsckLeaveTheLogUntouched) {
  // A crashed store keeps its padded log; tear the record at its end.
  TempFile tmp("recov_ro");
  const std::string wal_path = tmp.path() + ".wal";
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), WalOptions()));
    ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<db/>")).status());
    ASSERT_LAXML_OK(store->Sync());
    InsertChildren(store.get(), 4);
    store->TestOnlyCrash();
  }
  const std::vector<uint8_t> padded_log = ReadWholeFile(wal_path);
  ASSERT_GT(padded_log.size(), static_cast<size_t>(WalLogicalEnd(wal_path)));
  FsckOutcome padded = RunFsck(tmp.path());
  EXPECT_EQ(padded.exit_code, 0) << padded.report.Summary();
  EXPECT_EQ(padded.report.wal_torn_tail_bytes, 0u);
  EXPECT_GT(padded.report.wal_padding_bytes, 0u);
  EXPECT_EQ(ReadWholeFile(wal_path), padded_log);

  FlipBit(wal_path, WalLogicalEnd(wal_path) - 1);
  const std::vector<uint8_t> before = ReadWholeFile(wal_path);
  {
    StoreOptions read_only = WalOptions();
    read_only.pager.read_only = true;
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), read_only));
    ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
    EXPECT_EQ(xml, Children(3));  // the torn fourth record is dropped
  }
  EXPECT_EQ(ReadWholeFile(wal_path), before);
  FsckOutcome fsck = RunFsck(tmp.path());
  EXPECT_EQ(fsck.exit_code, 0) << fsck.report.Summary();
  EXPECT_GT(fsck.report.wal_torn_tail_bytes, 0u);
  EXPECT_EQ(ReadWholeFile(wal_path), before);
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
