#include "wal/wal_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace laxml {

// ---------------------------------------------------------------------------
// PosixWalFile

namespace {

constexpr uint64_t kZeroChunk = 64 << 10;
/// The first growth's size; later growths double the file.
constexpr uint64_t kInitialFileSize = kZeroChunk;
const uint8_t kZeros[kZeroChunk] = {};

Status PwriteAll(int fd, const uint8_t* data, size_t n, uint64_t offset) {
  while (n > 0) {
    ssize_t w = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wal write: ") +
                             std::strerror(errno));
    }
    data += w;
    n -= static_cast<size_t>(w);
    offset += static_cast<uint64_t>(w);
  }
  return Status::OK();
}

Status PreadAll(int fd, uint8_t* data, size_t n, uint64_t offset) {
  while (n > 0) {
    ssize_t r = ::pread(fd, data, n, static_cast<off_t>(offset));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return Status::IOError("wal short read");
    data += r;
    n -= static_cast<size_t>(r);
    offset += static_cast<uint64_t>(r);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<PosixWalFile>> PosixWalFile::Open(
    const std::string& path) {
  // O_CLOEXEC: keep the log fd out of forked/exec'd children.
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("open wal '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat sb;
  if (::fstat(fd, &sb) != 0) {
    Status st = Status::IOError("stat wal '" + path +
                                "': " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  return std::unique_ptr<PosixWalFile>(
      new PosixWalFile(fd, path, static_cast<uint64_t>(sb.st_size)));
}

PosixWalFile::~PosixWalFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PosixWalFile::Grow(uint64_t min_size) {
  uint64_t target = std::max(size_ * 2, kInitialFileSize);
  while (target < min_size) target *= 2;
  for (uint64_t off = size_; off < target; off += kZeroChunk) {
    LAXML_RETURN_IF_ERROR(PwriteAll(
        fd_, kZeros, static_cast<size_t>(std::min(kZeroChunk, target - off)),
        off));
  }
  LAXML_RETURN_IF_ERROR(Sync());
  size_ = target;
  return Status::OK();
}

Status PosixWalFile::Append(Slice data) {
  if (end_ + data.size() > size_) {
    LAXML_RETURN_IF_ERROR(Grow(end_ + data.size()));
  }
  LAXML_RETURN_IF_ERROR(PwriteAll(fd_, data.data(), data.size(), end_));
  end_ += data.size();
  return Status::OK();
}

Status PosixWalFile::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(std::string("wal fdatasync: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> PosixWalFile::ReadAll() const {
  std::vector<uint8_t> buf(static_cast<size_t>(end_));
  LAXML_RETURN_IF_ERROR(PreadAll(fd_, buf.data(), buf.size(), 0));
  return buf;
}

Status PosixWalFile::Truncate(uint64_t size) {
  if (size >= end_) return Status::OK();
  bool wrote = false;
  // The checkpoint reset also gives back what the epoch grew, inside
  // the same sync: disk use and the next recovery's read stay bounded
  // by one epoch, and the commit path still never changes the size.
  if (size == 0 && size_ > kInitialFileSize) {
    if (::ftruncate(fd_, static_cast<off_t>(kInitialFileSize)) != 0) {
      return Status::IOError(std::string("wal ftruncate: ") +
                             std::strerror(errno));
    }
    size_ = kInitialFileSize;
    end_ = std::min(end_, size_);
    wrote = true;
  }
  std::vector<uint8_t> chunk(
      static_cast<size_t>(std::min(kZeroChunk, end_ - size)));
  for (uint64_t off = size; off < end_; off += chunk.size()) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(
        chunk.size(), end_ - off));
    LAXML_RETURN_IF_ERROR(PreadAll(fd_, chunk.data(), n, off));
    if (std::memcmp(chunk.data(), kZeros, n) == 0) continue;
    LAXML_RETURN_IF_ERROR(PwriteAll(fd_, kZeros, n, off));
    wrote = true;
  }
  if (wrote) LAXML_RETURN_IF_ERROR(Sync());
  end_ = size;
  return Status::OK();
}

Result<uint64_t> PosixWalFile::Size() const { return end_; }

Status PosixWalFile::ShrinkToFit() {
  if (size_ == end_) return Status::OK();
  if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0) {
    return Status::IOError(std::string("wal ftruncate: ") +
                           std::strerror(errno));
  }
  size_ = end_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FaultyWalFile

Result<std::unique_ptr<FaultyWalFile>> FaultyWalFile::Wrap(
    std::unique_ptr<WalFile> base) {
  auto file = std::unique_ptr<FaultyWalFile>(
      new FaultyWalFile(std::move(base)));
  LAXML_ASSIGN_OR_RETURN(file->logical_, file->base_->ReadAll());
  file->synced_len_ = file->logical_.size();
  return file;
}

Status FaultyWalFile::CheckFault(FaultOp op) {
  uint64_t n = ++op_counts_[static_cast<int>(op)];
  const FaultPlan::Rule& r = plan_.rules[static_cast<int>(op)];
  if (r.nth != 0 && (n == r.nth || (r.sticky && n > r.nth))) {
    ++injected_faults_;
    return r.error;
  }
  uint32_t permille = plan_.random_permille[static_cast<int>(op)];
  if (permille != 0) {
    if (rng_state_ == 0) {
      rng_state_ = plan_.random_seed != 0 ? plan_.random_seed
                                          : 0x9E3779B97F4A7C15ull;
    }
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    if (rng_state_ % 1000 < permille) {
      ++injected_faults_;
      return plan_.random_error;
    }
  }
  return Status::OK();
}

void FaultyWalFile::Crash(uint64_t torn_bytes) {
  if (!crashed_ && torn_bytes > 0 && !rewrite_needed_ &&
      logical_.size() > synced_len_) {
    uint64_t tail = logical_.size() - synced_len_;
    if (torn_bytes > tail) torn_bytes = tail;
    // Deliberately unchecked: this *is* the simulated crash — a torn
    // append that may itself fail partway is exactly the scenario.
    (void)base_->Append(
        Slice(logical_.data() + synced_len_, torn_bytes));
  }
  crashed_ = true;
  // Revert the logical image to what survived on the base.
  auto synced = base_->ReadAll();
  if (synced.ok()) {
    logical_ = std::move(synced).value();
  } else {
    logical_.resize(synced_len_);
  }
  synced_len_ = logical_.size();
  rewrite_needed_ = false;
}

Status FaultyWalFile::Append(Slice data) {
  if (crashed_) return Status::IOError("wal file crashed");
  LAXML_RETURN_IF_ERROR(CheckFault(FaultOp::kWrite));
  logical_.insert(logical_.end(), data.data(), data.data() + data.size());
  return Status::OK();
}

Status FaultyWalFile::Sync() {
  if (crashed_) return Status::IOError("wal file crashed");
  // The fault check runs before any byte reaches the base: an injected
  // sync failure leaves the base at the previous synced image.
  LAXML_RETURN_IF_ERROR(CheckFault(FaultOp::kSync));
  if (rewrite_needed_) {
    LAXML_RETURN_IF_ERROR(base_->Truncate(0));
    LAXML_RETURN_IF_ERROR(
        base_->Append(Slice(logical_.data(), logical_.size())));
  } else if (logical_.size() > synced_len_) {
    LAXML_RETURN_IF_ERROR(base_->Append(
        Slice(logical_.data() + synced_len_, logical_.size() - synced_len_)));
  }
  LAXML_RETURN_IF_ERROR(base_->Sync());
  synced_len_ = logical_.size();
  rewrite_needed_ = false;
  return Status::OK();
}

Result<std::vector<uint8_t>> FaultyWalFile::ReadAll() const {
  if (crashed_) return Status::IOError("wal file crashed");
  return logical_;
}

Status FaultyWalFile::Truncate(uint64_t size) {
  if (crashed_) return Status::IOError("wal file crashed");
  LAXML_RETURN_IF_ERROR(CheckFault(FaultOp::kTruncate));
  if (size >= logical_.size()) return Status::OK();
  if (size < synced_len_) rewrite_needed_ = true;
  logical_.resize(size);
  return Status::OK();
}

Result<uint64_t> FaultyWalFile::Size() const {
  if (crashed_) return Status::IOError("wal file crashed");
  return static_cast<uint64_t>(logical_.size());
}

Status FaultyWalFile::ShrinkToFit() {
  if (crashed_) return Status::IOError("wal file crashed");
  // The base holds the synced image; what it gives back is padding.
  return base_->ShrinkToFit();
}

}  // namespace laxml
