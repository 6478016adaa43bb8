// Group-commit durability tests: a commit acknowledged through the
// sequencer survives a crash — even a crash that tears the WAL tail
// mid-batch — and the surviving store is laxml_fsck-clean. Also checks
// the batching accounting itself: concurrent committers share fsyncs.

#include "wal/group_commit.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "audit/fsck.h"
#include "concurrency/shared_store.h"
#include "store/store.h"
#include "test_util.h"
#include "wal/wal.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::MustSerialize;
using testing::TempFile;

StoreOptions GroupCommitOptions() {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeWithPartial;
  options.enable_wal = true;
  options.wal_sync = WalSyncMode::kGroupCommit;
  return options;
}

TEST(GroupCommitTest, SequencerBatchesConcurrentCommitters) {
  TempFile tmp("gc_batch");
  ASSERT_OK_AND_ASSIGN(auto store,
                       Store::Open(tmp.path(), GroupCommitOptions()));
  SharedStore shared(std::move(store));
  ASSERT_NE(shared.group_commit(), nullptr);
  ASSERT_OK_AND_ASSIGN(NodeId root,
                       shared.InsertTopLevel(MustFragment("<log/>")));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto r = shared.InsertIntoLast(
            root, MustFragment("<e t=\"" + std::to_string(t) + "\"/>"));
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every commit waited durable; every appended record is covered.
  Wal* wal = shared.UnsafeStore()->wal();
  EXPECT_EQ(wal->durable_lsn(), wal->appended_lsn());
  // Every committer (plus the root insert) got its acknowledgement.
  const GroupCommitStats& stats = shared.group_commit()->stats();
  EXPECT_EQ(uint64_t{stats.commits}, uint64_t{kThreads * kPerThread} + 1);
  // The sequencer never issues more fsyncs than commits, and every
  // record some leader synced is accounted in the batch totals.
  EXPECT_LE(uint64_t{stats.syncs}, uint64_t{stats.commits});
  EXPECT_EQ(uint64_t{stats.records_synced}, wal->durable_lsn());
}

// The headline guarantee: acked == durable. Concurrent committers run
// through the sequencer; we then tear the WAL tail (an unsynced append
// plus a partial final record, exactly what a crash mid-batch leaves),
// crash without checkpointing, and reopen. Every acknowledged commit
// must still be there, and fsck must pass on the torn store.
TEST(GroupCommitTest, AckedCommitsSurviveTornTailCrash) {
  TempFile tmp("gc_crash");
  std::vector<std::string> acked;
  std::mutex acked_mu;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         Store::Open(tmp.path(), GroupCommitOptions()));
    SharedStore shared(std::move(store));
    ASSERT_OK_AND_ASSIGN(NodeId root,
                         shared.InsertTopLevel(MustFragment("<log/>")));

    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string key =
              std::to_string(t) + "-" + std::to_string(i);
          auto r = shared.InsertIntoLast(
              root, MustFragment("<c k=\"" + key + "\"/>"));
          if (!r.ok()) {
            failures.fetch_add(1);
            continue;
          }
          // The insert returned: the sequencer acknowledged durability.
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.push_back(key);
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);

    // An append that never reached fdatasync (group-commit appends are
    // unsynced under the latch; durability happens in the wait we skip
    // by going through UnsafeStore) ...
    Store* raw = shared.UnsafeStore();
    ASSERT_LAXML_OK(
        raw->InsertIntoLast(root, MustFragment("<unacked/>")).status());
    // ... then the crash tears the final record in half.
    ASSERT_OK_AND_ASSIGN(auto wal_probe, Wal::Open(tmp.path() + ".wal"));
    ASSERT_OK_AND_ASSIGN(uint64_t wal_size, wal_probe->SizeBytes());
    wal_probe.reset();
    ASSERT_GT(wal_size, 4u);
    ASSERT_EQ(::truncate((tmp.path() + ".wal").c_str(),
                         static_cast<off_t>(wal_size - 3)),
              0);
    raw->TestOnlyCrash();
  }

  // fsck the torn store first: the torn WAL tail is a normal crash
  // artifact (the next recovery discards it), surfaced as a coverage
  // counter rather than an issue — the durable prefix and the page
  // image verify clean.
  {
    FsckOutcome fsck = RunFsck(tmp.path());
    EXPECT_EQ(fsck.exit_code, 0) << fsck.report.Summary();
    EXPECT_TRUE(fsck.wal_present);
    EXPECT_EQ(fsck.report.issues.size(), 0u) << fsck.report.Summary();
    EXPECT_GT(fsck.report.wal_torn_tail_bytes, 0u);
  }

  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         Store::Open(tmp.path(), GroupCommitOptions()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    const std::string xml = MustSerialize(all);
    for (const std::string& key : acked) {
      EXPECT_NE(xml.find("k=\"" + key + "\""), std::string::npos)
          << "acked commit lost: " << key;
    }
    // The unacked tail record died with the crash, as it should.
    EXPECT_EQ(xml.find("<unacked/>"), std::string::npos);
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }  // clean close: checkpoint + WAL truncate

  // After recovery and a clean close the store fscks clean.
  FsckOutcome fsck = RunFsck(tmp.path());
  EXPECT_EQ(fsck.exit_code, 0) << fsck.error << fsck.report.Summary();
}

// Sticky-error semantics: after the batch leader hits an fsync failure,
// every later commit keeps failing (fsync-gate). Simulated by closing
// the WAL fd out from under the sequencer — not portably testable
// without fault injection on fdatasync, so this test only checks the
// API surface: WaitDurable on an already-durable LSN is free.
TEST(GroupCommitTest, WaitDurableOnDurableLsnIsImmediate) {
  TempFile tmp("gc_noop");
  ASSERT_OK_AND_ASSIGN(auto store,
                       Store::Open(tmp.path(), GroupCommitOptions()));
  SharedStore shared(std::move(store));
  ASSERT_LAXML_OK(
      shared.InsertTopLevel(MustFragment("<x/>")).status());
  Wal* wal = shared.UnsafeStore()->wal();
  const uint64_t durable = wal->durable_lsn();
  EXPECT_GT(durable, 0u);
  const uint64_t syncs_before = shared.group_commit()->stats().syncs;
  ASSERT_LAXML_OK(shared.group_commit()->WaitDurable(durable));
  // No fsync was issued for an LSN already durable.
  EXPECT_EQ(uint64_t{shared.group_commit()->stats().syncs}, syncs_before);
}

}  // namespace
}  // namespace laxml
