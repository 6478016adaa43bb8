// The byte-level seam under every stored file. PageFile (page_file.h)
// and WalFile (wal/wal_file.h) keep their formats; File owns the bytes:
//
//   * PosixFile — the one pread/pwrite loop (EINTR retried, short counts
//     continued), fdatasync and ftruncate. Nothing else in the engine
//     touches a stored byte with a syscall.
//   * MemFile   — a byte vector, so an in-memory store runs the same
//     page-0 header and on-disk free chain as a file-backed one.
//   * FaultyFile (faulty_file.h) — the one fault injector and crash
//     model, slid in through StoreOptions::file_wrapper.

#ifndef LAXML_STORAGE_FILE_H_
#define LAXML_STORAGE_FILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace laxml {

/// A flat array of bytes with a size and a durability barrier.
class File {
 public:
  File() = default;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  virtual ~File() = default;

  /// Reads `n` bytes at `offset` into `buf`. Bytes at or past Size()
  /// read as zero.
  virtual Status ReadAt(uint64_t offset, size_t n, uint8_t* buf) = 0;

  /// Writes `data` at `offset`; a write past the end extends the file,
  /// and any gap reads as zero.
  virtual Status WriteAt(uint64_t offset, Slice data) = 0;

  /// Makes every write and resize issued so far durable.
  virtual Status Sync() = 0;

  /// Cuts the file to `size` bytes, or extends it with zeros.
  virtual Status Resize(uint64_t size) = 0;

  /// Current size in bytes, counting writes and resizes not yet synced.
  virtual uint64_t Size() const = 0;

  virtual const std::string& path() const = 0;
};

/// Passed each File a store opens (its page file, then its log) before
/// anything reads it; returning nullptr fails the open.
using FileWrapper = std::function<std::unique_ptr<File>(std::unique_ptr<File>)>;

/// A real file. `read_only` opens an existing file O_RDONLY (laxml_fsck);
/// otherwise the file is created when absent.
class PosixFile : public File {
 public:
  static Result<std::unique_ptr<PosixFile>> Open(const std::string& path,
                                                 bool read_only = false);
  ~PosixFile() override;

  Status ReadAt(uint64_t offset, size_t n, uint8_t* buf) override;
  Status WriteAt(uint64_t offset, Slice data) override;
  Status Sync() override;
  Status Resize(uint64_t size) override;
  uint64_t Size() const override { return size_; }
  const std::string& path() const override { return path_; }

 private:
  PosixFile(int fd, std::string path, uint64_t size)
      : fd_(fd), path_(std::move(path)), size_(size) {}

  int fd_;
  std::string path_;
  uint64_t size_;
};

/// Opens `path` as a PosixFile and passes it through `wrapper` when one
/// is set.
Result<std::unique_ptr<File>> OpenWrapped(const std::string& path,
                                          bool read_only,
                                          const FileWrapper& wrapper);

/// Bytes in memory; Sync is a no-op.
class MemFile : public File {
 public:
  Status ReadAt(uint64_t offset, size_t n, uint8_t* buf) override;
  Status WriteAt(uint64_t offset, Slice data) override;
  Status Sync() override { return Status::OK(); }
  Status Resize(uint64_t size) override;
  uint64_t Size() const override { return bytes_.size(); }
  const std::string& path() const override { return path_; }

 private:
  std::vector<uint8_t> bytes_;
  std::string path_ = "<memory>";
};

}  // namespace laxml

#endif  // LAXML_STORAGE_FILE_H_
