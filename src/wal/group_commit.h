// Group commit — the WAL commit sequencer (LevelDB-writer-queue style).
//
// Without it every committed mutation pays its own fdatasync, so N
// concurrent committers cost N rotations of the slowest device
// operation there is. With it, committers append their record (under
// the store's write latch, unsynced), release the latch, and call
// WaitDurable(lsn): the first arrival becomes the *leader*, snapshots
// the highest appended LSN, and issues ONE fdatasync covering its own
// record plus every follower queued behind it; followers just block on
// a condition variable until the durable point passes their LSN. Under
// load the fsync cost is amortized over the whole batch — commit
// throughput scales with committers instead of being divided by them.
//
// Error handling: an fdatasync failure poisons the sequencer (sticky
// status). Durability can no longer be promised for anything after the
// failure point, so every later WaitDurable reports the same error
// rather than pretending a retry could help (fsync-gate semantics).

#ifndef LAXML_WAL_GROUP_COMMIT_H_
#define LAXML_WAL_GROUP_COMMIT_H_

#include "common/mutex.h"
#include "common/relaxed_counter.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "wal/wal.h"

namespace laxml {

/// Counters for benches, tests and laxml_top.
struct GroupCommitStats {
  RelaxedCounter commits;        ///< WaitDurable calls that succeeded.
  RelaxedCounter syncs;          ///< fdatasyncs issued by leaders.
  RelaxedCounter records_synced; ///< LSNs advanced across all syncs.
  RelaxedCounter piggybacked;    ///< Commits durable with zero own I/O.
  obs::Histogram batch;          ///< LSNs each leader's sync advanced.
};

/// One sequencer per Wal. Thread-safe; cheap when uncontended (a
/// single-threaded committer degenerates to append + fdatasync with one
/// mutex round trip on top).
class GroupCommit {
 public:
  explicit GroupCommit(Wal* wal) : wal_(wal) {}

  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;

  /// Blocks until the WAL is durable through `lsn` (use
  /// Wal::appended_lsn() captured while still holding the latch that
  /// serialized the append). Returns the sticky error once any leader's
  /// fdatasync has failed. `lsn` 0 is a no-op (nothing was appended —
  /// e.g. the operation failed before logging).
  Status WaitDurable(uint64_t lsn) LAXML_EXCLUDES(mu_);

  const GroupCommitStats& stats() const { return stats_; }

 private:
  Wal* wal_;
  Mutex mu_;
  CondVar cv_;
  bool leader_active_ LAXML_GUARDED_BY(mu_) = false;
  Status sticky_error_ LAXML_GUARDED_BY(mu_);
  GroupCommitStats stats_;
};

}  // namespace laxml

#endif  // LAXML_WAL_GROUP_COMMIT_H_
