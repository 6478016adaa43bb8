// The log's bytes: an append-only log with sync and truncate over a
// File (storage/file.h). Wal (wal.h) keeps the record framing, LSN
// accounting, and stats; WalFile keeps the pre-zeroed, recycled file
// layout, so a commit's sync flushes the record, not a new file size.

#ifndef LAXML_WAL_WAL_FILE_H_
#define LAXML_WAL_WAL_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/file.h"

namespace laxml {

/// Log bytes: write at the logical end, sync, read back.
///
/// Invariant: every byte from the logical end to the end of the file is
/// a durable zero. A zero frame has body_len 0, which DecodeWalRecord
/// reads as the end of the log, so a record written at the logical end
/// is never followed by a stale one from an earlier epoch or a torn
/// batch. Three operations set the invariant, each with one sync:
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
///
/// Appends must be externally serialized; Sync may be called from any
/// thread (the group-commit leader's thread).
class WalFile {
 public:
  explicit WalFile(std::unique_ptr<File> file)
      : file_(std::move(file)), end_(file_->Size()), size_(end_) {}

  /// Appends raw bytes at the end of the log.
  Status Append(Slice data);

  /// Makes everything appended (and truncated) so far durable.
  Status Sync() { return file_->Sync(); }

  /// Reads the whole log into memory.
  Result<std::vector<uint8_t>> ReadAll() const;

  /// Shrinks the log to `size` bytes (0 = empty it). Bytes past `size`
  /// never decode again: a later record written over part of them is
  /// not followed by a stale one.
  Status Truncate(uint64_t size);

  /// Current logical size in bytes.
  uint64_t Size() const { return end_; }

  /// Clean close: gives back space held past the logical end, so a
  /// closed log is exactly its records.
  Status ShrinkToFit();

  const std::string& path() const { return file_->path(); }

 private:
  /// Extends the file with durable zeros until it holds `min_size` bytes.
  Status Grow(uint64_t min_size);

  std::unique_ptr<File> file_;
  uint64_t end_;   ///< Logical end: where the next append lands.
  uint64_t size_;  ///< Physical file size; [end_, size_) is zero.
};

}  // namespace laxml

#endif  // LAXML_WAL_WAL_FILE_H_
