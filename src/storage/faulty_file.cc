#include "storage/faulty_file.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

namespace laxml {

const char* FaultOpName(FaultOp op) {
  switch (op) {
    case FaultOp::kRead:
      return "read";
    case FaultOp::kWrite:
      return "write";
    case FaultOp::kSync:
      return "sync";
    case FaultOp::kResize:
      return "resize";
  }
  return "unknown";
}

void FaultPlan::FailNth(FaultOp op, uint64_t nth, Status error, bool sticky) {
  Rule& r = rules[static_cast<int>(op)];
  r.nth = nth;
  r.error = std::move(error);
  r.sticky = sticky;
}

FaultyFile::FaultyFile(std::unique_ptr<File> base)
    : base_(std::move(base)), size_(base_->Size()) {}

FaultyFile::~FaultyFile() {
  // A clean exit: the OS keeps what was written, synced or not.
  if (!crashed_) (void)Apply(std::numeric_limits<uint64_t>::max());
}

Status FaultyFile::CheckFault(FaultOp op) {
  if (crashed_) return Status::IOError("file crashed: " + path());
  uint64_t n = ++op_counts_[static_cast<int>(op)];
  const FaultPlan::Rule& r = plan_.rules[static_cast<int>(op)];
  if (r.nth != 0 && (n == r.nth || (r.sticky && n > r.nth))) {
    ++injected_faults_;
    return r.error;
  }
  return Status::OK();
}

Status FaultyFile::Apply(uint64_t keep_bytes) {
  size_t done = 0;
  Status st;
  for (; done < pending_.size() && keep_bytes > 0 && st.ok(); ++done) {
    const Pending& p = pending_[done];
    if (p.resize) {
      st = base_->Resize(p.offset);
      continue;
    }
    const uint64_t n = std::min<uint64_t>(keep_bytes, p.bytes.size());
    st = base_->WriteAt(p.offset, Slice(p.bytes.data(), n));
    keep_bytes -= n;
  }
  pending_.erase(pending_.begin(), pending_.begin() + done);
  return st;
}

void FaultyFile::Crash(uint64_t keep_bytes) {
  if (crashed_) return;
  // Deliberately unchecked: this is the power loss, and a base write
  // failing partway only means less of the cut survived.
  (void)Apply(keep_bytes);
  pending_.clear();
  crashed_ = true;
  size_ = base_->Size();
}

std::vector<FaultyFile::Write> FaultyFile::unsynced_writes() const {
  std::vector<Write> writes;
  for (const Pending& p : pending_) {
    if (!p.resize) writes.push_back({p.offset, p.bytes.size()});
  }
  return writes;
}

uint64_t FaultyFile::unsynced_bytes() const {
  uint64_t total = 0;
  for (const Pending& p : pending_) total += p.bytes.size();
  return total;
}

Status FaultyFile::ReadAt(uint64_t offset, size_t n, uint8_t* buf) {
  LAXML_RETURN_IF_ERROR(CheckFault(FaultOp::kRead));
  LAXML_RETURN_IF_ERROR(base_->ReadAt(offset, n, buf));
  // Replay the held ops over the base bytes, in issue order.
  const uint64_t end = offset + n;
  for (const Pending& p : pending_) {
    if (p.resize) {
      if (p.offset < end) {
        const uint64_t from = std::max(p.offset, offset);
        std::memset(buf + (from - offset), 0, end - from);
      }
      continue;
    }
    const uint64_t lo = std::max(p.offset, offset);
    const uint64_t hi = std::min(p.offset + p.bytes.size(), end);
    if (lo < hi) {
      std::memcpy(buf + (lo - offset), p.bytes.data() + (lo - p.offset),
                  hi - lo);
    }
  }
  return Status::OK();
}

Status FaultyFile::WriteAt(uint64_t offset, Slice data) {
  LAXML_RETURN_IF_ERROR(CheckFault(FaultOp::kWrite));
  pending_.push_back(
      {offset, std::vector<uint8_t>(data.data(), data.data() + data.size()),
       /*resize=*/false});
  size_ = std::max(size_, offset + data.size());
  return Status::OK();
}

Status FaultyFile::Resize(uint64_t size) {
  LAXML_RETURN_IF_ERROR(CheckFault(FaultOp::kResize));
  pending_.push_back({size, {}, /*resize=*/true});
  size_ = size;
  return Status::OK();
}

Status FaultyFile::Sync() {
  // The fault check runs before any held byte reaches the base: an
  // injected sync failure leaves the base at the previous sync.
  LAXML_RETURN_IF_ERROR(CheckFault(FaultOp::kSync));
  LAXML_RETURN_IF_ERROR(Apply(std::numeric_limits<uint64_t>::max()));
  return base_->Sync();
}

FileWrapper WrapInFaultyFiles(FaultyFile** pages, FaultyFile** wal) {
  return [pages, wal](std::unique_ptr<File> base) -> std::unique_ptr<File> {
    const std::string& path = base->path();
    const bool is_wal =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".wal") == 0;
    auto faulty = std::make_unique<FaultyFile>(std::move(base));
    *(is_wal ? wal : pages) = faulty.get();
    return faulty;
  };
}

}  // namespace laxml
