#include "wal/wal_file.h"

#include <algorithm>
#include <cstring>

namespace laxml {

namespace {

constexpr uint64_t kZeroChunk = 64 << 10;
/// The first growth's size; later growths double the file.
constexpr uint64_t kInitialFileSize = kZeroChunk;
const uint8_t kZeros[kZeroChunk] = {};

}  // namespace

Status WalFile::Grow(uint64_t min_size) {
  uint64_t target = std::max(size_ * 2, kInitialFileSize);
  while (target < min_size) target *= 2;
  for (uint64_t off = size_; off < target; off += kZeroChunk) {
    LAXML_RETURN_IF_ERROR(file_->WriteAt(
        off, Slice(kZeros, static_cast<size_t>(
                               std::min(kZeroChunk, target - off)))));
  }
  LAXML_RETURN_IF_ERROR(Sync());
  size_ = target;
  return Status::OK();
}

Status WalFile::Append(Slice data) {
  if (end_ + data.size() > size_) {
    LAXML_RETURN_IF_ERROR(Grow(end_ + data.size()));
  }
  LAXML_RETURN_IF_ERROR(file_->WriteAt(end_, data));
  end_ += data.size();
  return Status::OK();
}

Result<std::vector<uint8_t>> WalFile::ReadAll() const {
  std::vector<uint8_t> buf(static_cast<size_t>(end_));
  LAXML_RETURN_IF_ERROR(file_->ReadAt(0, buf.size(), buf.data()));
  return buf;
}

Status WalFile::Truncate(uint64_t size) {
  if (size >= end_) return Status::OK();
  bool wrote = false;
  // The checkpoint reset also gives back what the epoch grew, inside
  // the same sync: disk use and the next recovery's read stay bounded
  // by one epoch, and the commit path still never changes the size.
  if (size == 0 && size_ > kInitialFileSize) {
    LAXML_RETURN_IF_ERROR(file_->Resize(kInitialFileSize));
    size_ = kInitialFileSize;
    end_ = std::min(end_, size_);
    wrote = true;
  }
  std::vector<uint8_t> chunk(
      static_cast<size_t>(std::min(kZeroChunk, end_ - size)));
  for (uint64_t off = size; off < end_; off += chunk.size()) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(
        chunk.size(), end_ - off));
    LAXML_RETURN_IF_ERROR(file_->ReadAt(off, n, chunk.data()));
    if (std::memcmp(chunk.data(), kZeros, n) == 0) continue;
    LAXML_RETURN_IF_ERROR(file_->WriteAt(off, Slice(kZeros, n)));
    wrote = true;
  }
  if (wrote) LAXML_RETURN_IF_ERROR(Sync());
  end_ = size;
  return Status::OK();
}

Status WalFile::ShrinkToFit() {
  if (size_ == end_) return Status::OK();
  LAXML_RETURN_IF_ERROR(file_->Resize(end_));
  size_ = end_;
  return Status::OK();
}

}  // namespace laxml
