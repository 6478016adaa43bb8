// Multi-threaded stress tests — the TSan targets. SharedStore is the
// engine's concurrency boundary (the core is single-threaded by
// design), so these tests hammer it from several threads and let the
// sanitizer prove the latching actually covers the buffer pool, the
// partial index, and the range chain.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/shared_store.h"
#include "store/store.h"
#include "test_util.h"

namespace laxml {
namespace {

using ::laxml::testing::MustFragment;
using ::laxml::testing::TempFile;

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 120;

void HammerSharedStore(SharedStore* shared) {
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([shared, t, &failures] {
      std::vector<NodeId> mine;
      for (int i = 0; i < kOpsPerThread; ++i) {
        int op = (t + i) % 4;
        if (op == 0 || mine.empty()) {
          auto inserted = shared->Apply(
              WalOp::kInsertTopLevel, kInvalidNodeId,
              MustFragment("<n t='" + std::to_string(t) + "'>" +
                           std::to_string(i) + "</n>"));
          if (inserted.ok()) {
            mine.push_back(*inserted);
          } else {
            failures.fetch_add(1);
          }
        } else if (op == 1) {
          // Reads memoize into the partial index — a data race here is
          // exactly what the exclusive latch must prevent.
          auto read = shared->Read(mine[i % mine.size()]);
          if (!read.ok()) failures.fetch_add(1);
        } else if (op == 2) {
          auto replaced = shared->Apply(WalOp::kReplaceNode,
                                        mine[i % mine.size()],
                                        MustFragment("<r/>"));
          if (replaced.ok()) {
            mine[i % mine.size()] = *replaced;
          } else {
            failures.fetch_add(1);
          }
        } else {
          if (shared->DeleteNode(mine.back()).ok()) {
            mine.pop_back();
          } else {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Single-threaded epilogue: the interleaving must leave every
  // cross-layer invariant intact.
  EXPECT_LAXML_OK(shared->UnsafeStore()->CheckIntegrity());
}

TEST(MtStressTest, SharedStoreInMemory) {
  StoreOptions options;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  SharedStore shared(std::move(store));
  HammerSharedStore(&shared);
}

TEST(MtStressTest, SharedStoreFileBackedSmallPool) {
  // A small buffer pool forces steady eviction/fetch traffic, so the
  // pool's bookkeeping is exercised under the latch as hard as the
  // token-level structures.
  TempFile file("mt_pool");
  StoreOptions options;
  options.pager.pool_frames = 16;
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), options));
  SharedStore shared(std::move(store));
  HammerSharedStore(&shared);
  EXPECT_LAXML_OK(shared.UnsafeStore()->Sync());
}

TEST(MtStressTest, SharedStoreWithWal) {
  TempFile file("mt_wal");
  StoreOptions options;
  options.enable_wal = true;
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), options));
  SharedStore shared(std::move(store));
  HammerSharedStore(&shared);
  EXPECT_LAXML_OK(shared.UnsafeStore()->Sync());
}

// TSan regression: StoreStats fields are RelaxedCounters, so a stats
// poller reading Store::stats() WITHOUT the SharedStore latch while
// writer threads mutate is race-free. (With plain uint64_t fields this
// is a data race — observability pollers must never require the
// exclusive latch just to read counters.)
TEST(MtStressTest, StoreStatsReadableWhileMutating) {
  StoreOptions options;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  SharedStore shared(std::move(store));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread poller([&shared, &stop] {
    const StoreStats& stats = shared.UnsafeStore()->stats();
    uint64_t last_inserts = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Unlatched reads racing live mutations: tsan-clean by design.
      uint64_t inserts = stats.inserts;
      uint64_t reads = stats.reads_by_id;
      uint64_t tokens = stats.tokens_inserted;
      EXPECT_GE(inserts, last_inserts);  // counters are monotone
      last_inserts = inserts;
      (void)reads;
      (void)tokens;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&shared, t, &failures] {
      std::vector<NodeId> mine;
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % 3 != 2 || mine.empty()) {
          auto inserted = shared.Apply(
              WalOp::kInsertTopLevel, kInvalidNodeId,
              MustFragment("<s>" + std::to_string(t * 1000 + i) + "</s>"));
          if (inserted.ok()) {
            mine.push_back(*inserted);
          } else {
            failures.fetch_add(1);
          }
        } else {
          auto read = shared.Read(mine[i % mine.size()]);
          if (!read.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(failures.load(), 0);
  const StoreStats& stats = shared.UnsafeStore()->stats();
  EXPECT_GE(static_cast<uint64_t>(stats.inserts),
            static_cast<uint64_t>(kThreads));
  EXPECT_LAXML_OK(shared.UnsafeStore()->CheckIntegrity());
}

TEST(MtStressTest, SharedReadersRunConcurrently) {
  // Reader-latch path: a read-heavy mix under the shared latch over the
  // lazy store without memoization stays clean (the memoizing read path
  // has its own storm in shared_read_stress_test).
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  options.partial_index_capacity = 0;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  ASSERT_OK_AND_ASSIGN(NodeId first, store->LoadXml("<root><a>x</a></root>"));
  (void)first;
  SharedStore shared(std::move(store));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &failures] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto all = shared.Read();
        if (!all.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LAXML_OK(shared.UnsafeStore()->CheckIntegrity());
}

}  // namespace
}  // namespace laxml
