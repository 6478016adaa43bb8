// SharedStore: a thread-safe facade over Store. Writers serialize on an
// exclusive latch; readers run concurrently with each other under a
// shared latch. Committed writes are made durable through the WAL
// group-commit sequencer when StoreOptions::wal_sync == kGroupCommit.
//
// Why concurrent readers are sound even though reads MUTATE (the lazy
// store memoizes every hard lookup — laziness is the paper's point):
//   * Partial Index: sharded; every probe/memoization happens under the
//     owning shard's mutex, and Lookup copies the entry out before the
//     shard lock drops (see partial_index.h).
//   * Buffer pool: the page table is under a shared_mutex (shared for
//     hits, exclusive for misses/evictions); pins and recency are
//     atomics, so a hit never writes a shared structure (buffer_pool.h).
//   * Stats everywhere on the read path are RelaxedCounters.
//   * Full Index: readers only call the const FullIndex::Get (a B-tree
//     descent, like RangeIndex::Lookup); it is maintained by mutators
//     alone, under the exclusive latch.
// Memory ordering between a writer and later readers comes from this
// latch itself: the writer's unlock of the exclusive latch
// happens-before every subsequent shared acquisition, so readers see
// all of its page/index/meta writes. Readers never write anything a
// concurrent reader reads un-atomically, so reader/reader pairs need no
// further ordering. Every reader, in either index mode, takes the
// shared latch.
//
// Group commit: mutators append their WAL record under the exclusive
// latch WITHOUT syncing, capture the record's LSN, release the latch,
// and then block in GroupCommit::WaitDurable. Overlapping committers
// therefore share one fdatasync (see wal/group_commit.h); the wait
// happening outside the latch is what lets their appends batch at all.
//
// This latch is the engine's only concurrency control. The range
// locking protocol the paper names as future work (§9) is not modelled.

#ifndef LAXML_CONCURRENCY_SHARED_STORE_H_
#define LAXML_CONCURRENCY_SHARED_STORE_H_

#include <memory>
#include <utility>

#include "common/mutex.h"
#include "common/relaxed_counter.h"
#include "common/thread_annotations.h"
#include "obs/request_context.h"
#include "store/store.h"
#include "wal/group_commit.h"

namespace laxml {

/// Latch traffic counters (laxml_top's shared/exclusive ratio).
struct SharedStoreStats {
  RelaxedCounter shared_acquisitions;
  RelaxedCounter exclusive_acquisitions;
};

/// Thread-safe wrapper owning a Store.
class SharedStore {
 public:
  explicit SharedStore(std::unique_ptr<Store> store)
      : store_(std::move(store)) {
    if (store_->wal() != nullptr &&
        store_->options().wal_sync == WalSyncMode::kGroupCommit) {
      group_commit_ = std::make_unique<GroupCommit>(store_->wal());
    }
  }

 private:
  // The auto-returning helpers must be defined before the inline public
  // methods that call them (return-type deduction needs the body first).

  /// Runs `fn` under the exclusive latch and returns its result, with
  /// the LSN to wait durable on in `*lsn` (0 when group commit is off).
  /// The LSN is captured before the latch drops (it identifies OUR
  /// append); the caller waits after the release, so overlapping
  /// committers batch. Raw Lock/Unlock rather than a scope, for the same
  /// reason; the thread safety analysis checks the release.
  template <typename Fn>
  auto RunExclusive(Fn& fn, uint64_t* lsn) LAXML_EXCLUDES(mutex_) {
    const uint64_t latch_wait = obs::RequestLatchWaitBegin();
    mutex_.Lock();
    obs::RequestLatchWaitEnd(latch_wait);
    ++stats_.exclusive_acquisitions;
    auto result = fn(*store_);
    *lsn = group_commit_ != nullptr ? store_->wal()->appended_lsn() : 0;
    mutex_.Unlock();
    return result;
  }

  /// Waits until `lsn` is durable; 0 waits for nothing. A failed wait
  /// fail-stops the store: the work is applied in memory but its commit
  /// record never became durable, so the store can no longer keep its
  /// promise that acked state survives a crash — the same gate the
  /// kEveryCommit path hits inside the mutator.
  Status AwaitDurable(uint64_t lsn) LAXML_EXCLUDES(mutex_) {
    if (lsn == 0) return Status::OK();
    Status st = group_commit_->WaitDurable(lsn);
    if (!st.ok()) store_->Poison(st);
    return st;
  }

  /// One mutation: waits durable only when it succeeded, and a failed
  /// wait is its result.
  template <typename Fn>
  auto Mutate(Fn fn) LAXML_EXCLUDES(mutex_) {
    uint64_t lsn = 0;
    auto result = RunExclusive(fn, &lsn);
    if (result.ok()) {
      Status st = AwaitDurable(lsn);
      if (!st.ok()) return decltype(result)(st);
    }
    return result;
  }

  template <typename Fn>
  auto ReadOp(Fn fn) LAXML_EXCLUDES(mutex_) {
    const uint64_t latch_wait = obs::RequestLatchWaitBegin();
    ReaderMutexLock lock(mutex_);
    obs::RequestLatchWaitEnd(latch_wait);
    ++stats_.shared_acquisitions;
    return fn(*store_);
  }

 public:
  /// The Table-1 mutations (Store::Apply): exclusive latch + group-commit
  /// durability.
  Result<NodeId> Apply(WalOp op, NodeId target, const TokenSequence& data) {
    return Mutate([&](Store& s) { return s.Apply(op, target, data); });
  }
  Status DeleteNode(NodeId id) {
    return Apply(WalOp::kDeleteNode, id, {}).status();
  }

  /// @name Readers: shared latch.
  /// @{
  Result<TokenSequence> Read() {
    return ReadOp([](Store& s) { return s.Read(); });
  }
  Result<TokenSequence> Read(NodeId id) {
    return ReadOp([&](Store& s) { return s.Read(id); });
  }
  Result<std::string> SerializeToXml() {
    return ReadOp([](Store& s) { return s.SerializeToXml(); });
  }
  bool Exists(NodeId id) {
    return ReadOp([&](Store& s) { return s.Exists(id); });
  }
  Result<Token> Describe(NodeId id) {
    return ReadOp([&](Store& s) { return s.Describe(id); });
  }
  /// @}

  /// Runs `fn(Store&)` under the exclusive latch (multi-op atomicity).
  /// Any WAL records `fn` appends are made durable through the group
  /// commit before returning. The batch's fsync outcome cannot be
  /// folded into fn's arbitrary return type; a failure fail-stops the
  /// store so the next mutator reports it.
  template <typename Fn>
  auto WithExclusive(Fn fn) LAXML_EXCLUDES(mutex_) {
    uint64_t lsn = 0;
    auto result = RunExclusive(fn, &lsn);
    (void)AwaitDurable(lsn);
    return result;
  }

  /// Runs `fn(Store&)` under the SHARED latch. `fn` must only perform
  /// read operations (Read / Serialize / queries / stats) — mutating
  /// the store here is a data race.
  template <typename Fn>
  auto WithShared(Fn fn) {
    return ReadOp(std::move(fn));
  }

  const SharedStoreStats& stats() const { return stats_; }

  /// The commit sequencer (nullptr unless wal_sync == kGroupCommit).
  GroupCommit* group_commit() { return group_commit_.get(); }

  /// Access to the underlying store for single-threaded phases (setup,
  /// verification). Caller must ensure no other thread is active.
  Store* UnsafeStore() { return store_.get(); }

 private:
  /// The store latch. `store_` itself is not LAXML_PT_GUARDED_BY: the
  /// post-latch durability wait legitimately calls Store::Poison (which
  /// is internally synchronized) after the release.
  SharedMutex mutex_;
  std::unique_ptr<Store> store_;
  std::unique_ptr<GroupCommit> group_commit_;
  SharedStoreStats stats_;
};

}  // namespace laxml

#endif  // LAXML_CONCURRENCY_SHARED_STORE_H_
