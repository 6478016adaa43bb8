// Deterministic fault injection and the one crash model, below both
// stored files.
//
// FaultyFile decorates any File. Its FaultPlan fails the Nth call of an
// operation class (read, write, sync, resize) with a chosen status,
// once or sticky. Writes and resizes are held in issue order until
// Sync(), and reads see them. Sync() checks for an injected fault
// first and only then applies them to the base, so a failed sync
// leaves the base as of the last completed one.
//
// Crash(keep_bytes) is power loss: the first `keep_bytes` unsynced
// written bytes reach the base in issue order (the last write they
// reach may be cut; a resize reaches it when the cut lies past it),
// the rest are dropped, and every later call fails. Crash(0) keeps
// nothing; a cut inside a log append is a torn WAL tail; a cut inside
// an in-place page write is a torn page. A FaultyFile destroyed without
// Crash() is a clean process exit: everything issued reaches the base.
//
// Test-only. Not thread-safe; calls are serialized by the store's
// latches.

#ifndef LAXML_STORAGE_FAULTY_FILE_H_
#define LAXML_STORAGE_FAULTY_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/file.h"

namespace laxml {

/// Operation classes a fault rule can target.
enum class FaultOp : int {
  kRead = 0,
  kWrite = 1,
  kSync = 2,
  kResize = 3,
};
inline constexpr int kFaultOpCount = 4;

const char* FaultOpName(FaultOp op);

/// A programmable schedule of injected failures, indexed by operation
/// class. Deterministic: the same plan over the same call sequence
/// produces the same failures.
struct FaultPlan {
  struct Rule {
    uint64_t nth = 0;  ///< 1-based call index that fails; 0 = disabled.
    Status error = Status::OK();
    bool sticky = false;  ///< Keep failing every call from `nth` on.
  };
  Rule rules[kFaultOpCount];

  /// Schedules the `nth` call of class `op` to fail with `error`.
  void FailNth(FaultOp op, uint64_t nth, Status error, bool sticky = false);
};

class FaultyFile : public File {
 public:
  explicit FaultyFile(std::unique_ptr<File> base);
  ~FaultyFile() override;

  // -- Fault programming ---------------------------------------------
  void FailNth(FaultOp op, uint64_t nth, Status error, bool sticky = false) {
    plan_.FailNth(op, nth, std::move(error), sticky);
  }
  void ClearFaults() { plan_ = FaultPlan(); }

  /// Power loss; see the file comment.
  void Crash(uint64_t keep_bytes = 0);

  // -- Introspection -------------------------------------------------
  uint64_t op_count(FaultOp op) const {
    return op_counts_[static_cast<int>(op)];
  }
  uint64_t injected_faults() const { return injected_faults_; }

  struct Write {
    uint64_t offset;
    uint64_t length;
  };
  /// Unsynced writes in issue order (resizes are not listed).
  std::vector<Write> unsynced_writes() const;
  /// Sum of the unsynced writes' lengths: the range of Crash's cut.
  uint64_t unsynced_bytes() const;
  File* base() { return base_.get(); }

  // -- File ----------------------------------------------------------
  Status ReadAt(uint64_t offset, size_t n, uint8_t* buf) override;
  Status WriteAt(uint64_t offset, Slice data) override;
  Status Sync() override;
  Status Resize(uint64_t size) override;
  uint64_t Size() const override { return size_; }
  const std::string& path() const override { return base_->path(); }

 private:
  /// A held write, or (resize) a size change to `offset`.
  struct Pending {
    uint64_t offset;
    std::vector<uint8_t> bytes;
    bool resize;
  };

  /// Counts the op and returns the injected error, if the plan says
  /// this call fails (or the file has crashed). OK otherwise.
  Status CheckFault(FaultOp op);
  /// Applies held ops to the base in issue order until `keep_bytes`
  /// written bytes have gone (the last write may be cut) and forgets
  /// them; later ops stay held.
  Status Apply(uint64_t keep_bytes);

  std::unique_ptr<File> base_;
  FaultPlan plan_;
  uint64_t op_counts_[kFaultOpCount] = {};
  uint64_t injected_faults_ = 0;
  std::vector<Pending> pending_;
  uint64_t size_;
  bool crashed_ = false;
};

/// A StoreOptions::file_wrapper that wraps each file a store opens in a
/// FaultyFile and reports the page file's injector through `*pages` and
/// the log's (its path ends in ".wal") through `*wal`.
FileWrapper WrapInFaultyFiles(FaultyFile** pages, FaultyFile** wal);

}  // namespace laxml

#endif  // LAXML_STORAGE_FAULTY_FILE_H_
