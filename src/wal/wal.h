// The write-ahead log file: append framed logical records, read them all
// back at recovery, reset at checkpoint. See log_format.h for the record
// format, wal_file.h for the pre-zeroed file that keeps a commit's
// fdatasync to its record, storage/file.h for the bytes under it (and
// storage/faulty_file.h for the crash model tests slide in there), and
// store.h / DESIGN.md for the recovery protocol and its documented
// limits (no-steal buffer pool between checkpoints).
//
// LSNs: every appended record gets a log sequence number (1, 2, 3, ...,
// monotone for the life of the handle — Truncate does NOT reset it, it
// marks everything so far durable, since the checkpoint that truncates
// persisted those effects itself). appended_lsn is the last record
// written into the OS file, durable_lsn the last one known stable via
// fdatasync (or checkpoint). A committer whose record has
// lsn <= durable_lsn is durable without issuing any I/O of its own —
// the hook the group-commit sequencer (group_commit.h) builds on.
// Appends must be externally serialized (the store's write latch);
// Sync() may be called from any thread.

#ifndef LAXML_WAL_WAL_H_
#define LAXML_WAL_WAL_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/relaxed_counter.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "wal/log_format.h"
#include "wal/wal_file.h"

namespace laxml {

/// Counters for tests and scrapes. RelaxedCounters: Sync() runs from
/// committer threads concurrently with appends and stat readers.
struct WalStats {
  RelaxedCounter records_appended;
  RelaxedCounter bytes_appended;
  RelaxedCounter truncations;
  RelaxedCounter syncs;
  obs::Histogram fsync_us;  ///< Each successful fdatasync's wall time.
};

/// An append-only operation journal.
class Wal {
 public:
  /// Opens (creating if absent) the log at `path`.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path);

  /// Builds the log over an already-open File (Store::Open passes it
  /// through StoreOptions::file_wrapper first).
  static Result<std::unique_ptr<Wal>> Open(std::unique_ptr<File> file);

  ~Wal();

  /// Appends one record; `sync` forces fdatasync (commit durability).
  /// On a log opened non-empty, TrimTornTail or Truncate must run first
  /// (the file may hold padding past its last record); until then this
  /// fails with InvalidArgument.
  Status Append(const WalRecord& record, bool sync);

  /// Forces everything appended so far to stable storage and advances
  /// durable_lsn. One call covers every record appended before it — the
  /// primitive a group-commit leader uses to make a whole batch durable
  /// with a single fdatasync.
  Status Sync();

  /// LSN of the last record appended (0 = none this epoch).
  uint64_t appended_lsn() const {
    return appended_lsn_.load(std::memory_order_acquire);
  }

  /// LSN through which the log is known durable.
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Reads every intact record from the start of the log. A torn tail
  /// is silently dropped (those operations never committed).
  Result<std::vector<WalRecord>> ReadAll() const;

  /// Drops a torn tail — bytes after the last record whose framing
  /// verifies — by zeroing it durably, so the on-disk log is exactly
  /// what replay will execute and the next append cannot revive a stale
  /// record behind it. Recovery calls this before replaying (and before
  /// the first append after a crash): those bytes were never
  /// acknowledged durable (their commit never returned), and trimming
  /// them keeps audits of the surviving log clean. Writes nothing when
  /// they already read as zero. Returns the records it verified: the
  /// whole log left behind, so recovery replays them without reading
  /// the file again.
  Result<std::vector<WalRecord>> TrimTornTail();

  /// Empties the log (checkpoint completed): zeroes the used prefix and
  /// syncs it, keeping the file's size (or cutting it back to its first
  /// size when the epoch grew it). Advances durable_lsn to
  /// appended_lsn: the checkpoint persisted every logged effect.
  Status Truncate();

  /// Current logical log size in bytes (the file may be longer: its
  /// tail is zero padding).
  Result<uint64_t> SizeBytes() const;

  /// Clean close: cuts the file to its logical size.
  Status ShrinkToFit();

  const WalStats& stats() const { return stats_; }
  const std::string& path() const { return file_.path(); }

 private:
  explicit Wal(std::unique_ptr<File> file) : file_(std::move(file)) {}

  WalFile file_;
  WalStats stats_;
  std::vector<uint8_t> encode_buf_;  ///< Append's framing, reused.
  /// False from opening a non-empty log until TrimTornTail or Truncate
  /// has found its logical end; Append refuses to run before that.
  bool end_known_ = false;
  /// Last record written into the file / last record fdatasync'd. The
  /// group-commit sequencer reads these from committer threads while
  /// the appender holds the store latch, hence atomics.
  std::atomic<uint64_t> appended_lsn_{0};
  std::atomic<uint64_t> durable_lsn_{0};
};

}  // namespace laxml

#endif  // LAXML_WAL_WAL_H_
