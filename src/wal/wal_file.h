// The byte-level seam under the WAL: an append-only log with sync and
// truncate. Wal (wal.h) keeps the record framing, LSN accounting, and
// stats; WalFile owns the raw I/O, so tests can slide a fault-injecting
// implementation underneath without touching commit logic.
//
//   * PosixWalFile  — the real thing: a pre-zeroed, recycled file. Its
//     size stays fixed on the commit path (pwrite at the logical end,
//     fdatasync), so a commit's sync flushes the record, not a new
//     file size.
//   * FaultyWalFile — decorator that injects failures (fail the Nth
//     append/sync/truncate) and models power loss: appends and
//     truncates buffer in memory and only reach the base on Sync();
//     Crash() reverts to the last synced image, optionally leaving a
//     torn suffix of a partially-flushed append (the torn tail
//     TrimTornTail exists for).

#ifndef LAXML_WAL_WAL_FILE_H_
#define LAXML_WAL_WAL_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/faulty_page_file.h"  // FaultPlan / FaultOp

namespace laxml {

/// Append-only byte log. Appends must be externally serialized; Sync
/// may be called from any thread (the group-commit leader's thread).
class WalFile {
 public:
  virtual ~WalFile() = default;

  /// Appends raw bytes at the end of the log.
  virtual Status Append(Slice data) = 0;

  /// Makes everything appended (and truncated) so far durable.
  virtual Status Sync() = 0;

  /// Reads the whole log into memory.
  virtual Result<std::vector<uint8_t>> ReadAll() const = 0;

  /// Shrinks the log to `size` bytes (0 = empty it). Bytes past `size`
  /// must never decode again: a later record written over part of them
  /// must not be followed by a stale one.
  virtual Status Truncate(uint64_t size) = 0;

  /// Current logical size in bytes.
  virtual Result<uint64_t> Size() const = 0;

  /// Clean close: gives back space held past the logical end, so a
  /// closed log is exactly its records.
  virtual Status ShrinkToFit() = 0;

  virtual const std::string& path() const = 0;
};

/// File-backed WAL bytes: pwrite at the logical end, fdatasync, pread.
///
/// Invariant: every byte from the logical end to the end of the file is
/// a durable zero. A zero frame has body_len 0, which DecodeWalRecord
/// reads as the end of the log, so a record written at the logical end
/// is never followed by a stale one from an earlier epoch or a torn
/// batch. Three operations set the invariant, each with one fdatasync:
///   * growth — an append that would pass the physical end first
///     extends the file with zeros (64 KiB, then doubling);
///   * Truncate — zeroes [size, logical end) instead of shrinking the
///     file, skipping the write where those bytes already read as zero
///     (the checkpoint reset and the recovery trim both land here); a
///     reset of a file grown past its first size also cuts it back to
///     that size;
///   * ShrinkToFit — a clean close cuts the file to its logical end.
/// Open takes the whole file as the logical log; recovery's Truncate
/// to the last verifying record (Wal::TrimTornTail) must precede the
/// first append to a reopened log, and Wal::Append enforces that.
class PosixWalFile : public WalFile {
 public:
  static Result<std::unique_ptr<PosixWalFile>> Open(const std::string& path);
  ~PosixWalFile() override;

  Status Append(Slice data) override;
  Status Sync() override;
  Result<std::vector<uint8_t>> ReadAll() const override;
  Status Truncate(uint64_t size) override;
  Result<uint64_t> Size() const override;
  Status ShrinkToFit() override;
  const std::string& path() const override { return path_; }

 private:
  PosixWalFile(int fd, std::string path, uint64_t size)
      : fd_(fd), path_(std::move(path)), end_(size), size_(size) {}

  /// Extends the file with durable zeros until it holds `min_size` bytes.
  Status Grow(uint64_t min_size);

  int fd_;
  std::string path_;
  uint64_t end_;   ///< Logical end: where the next append lands.
  uint64_t size_;  ///< Physical file size; [end_, size_) is zero.
};

/// Fault-injecting WalFile decorator. Maintains the full logical log
/// image in memory; the base file holds the last synced image. An
/// injected sync failure fires before any byte reaches the base.
/// FaultOp mapping: kWrite = Append, kSync = Sync, kTruncate = Truncate.
/// Test-only.
class FaultyWalFile : public WalFile {
 public:
  /// Wraps `base`; the logical image is seeded from its current bytes.
  static Result<std::unique_ptr<FaultyWalFile>> Wrap(
      std::unique_ptr<WalFile> base);

  FaultPlan& plan() { return plan_; }
  void FailNth(FaultOp op, uint64_t nth, Status error, bool sticky = false) {
    plan_.FailNth(op, nth, std::move(error), sticky);
  }
  void ClearFaults() { plan_ = FaultPlan(); }

  /// Power loss: discard unsynced appends/truncates and block further
  /// ops. When `torn_bytes` > 0 and unsynced appends exist, the first
  /// `torn_bytes` of the unsynced suffix reach the base first — a torn
  /// tail for recovery to trim.
  void Crash(uint64_t torn_bytes = 0);
  bool crashed() const { return crashed_; }

  uint64_t op_count(FaultOp op) const {
    return op_counts_[static_cast<int>(op)];
  }
  uint64_t injected_faults() const { return injected_faults_; }
  uint64_t unsynced_bytes() const {
    return logical_.size() > synced_len_ && !rewrite_needed_
               ? logical_.size() - synced_len_
               : (rewrite_needed_ ? logical_.size() : 0);
  }

  Status Append(Slice data) override;
  Status Sync() override;
  Result<std::vector<uint8_t>> ReadAll() const override;
  Status Truncate(uint64_t size) override;
  Result<uint64_t> Size() const override;
  Status ShrinkToFit() override;
  const std::string& path() const override { return base_->path(); }

 private:
  explicit FaultyWalFile(std::unique_ptr<WalFile> base)
      : base_(std::move(base)) {}

  Status CheckFault(FaultOp op);

  std::unique_ptr<WalFile> base_;
  bool crashed_ = false;

  FaultPlan plan_;
  uint64_t rng_state_ = 0;
  uint64_t op_counts_[kFaultOpCount] = {};
  uint64_t injected_faults_ = 0;

  std::vector<uint8_t> logical_;  ///< Current logical log content.
  uint64_t synced_len_ = 0;       ///< Bytes of `logical_` the base holds.
  /// True when an unsynced truncate cut below synced_len_: the base no
  /// longer holds a prefix of `logical_` and the flush must rewrite.
  bool rewrite_needed_ = false;
};

}  // namespace laxml

#endif  // LAXML_WAL_WAL_FILE_H_
