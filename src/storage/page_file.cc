#include "storage/page_file.h"

#include <cstring>

#include "common/logging.h"

namespace laxml {

namespace {
constexpr uint32_t kFileMagic = 0x4C41584Du;  // "LAXM"
constexpr uint32_t kFileVersion = 1;

// Offsets within the meta page payload (after the common page header).
constexpr uint32_t kMagicOff = 0;
constexpr uint32_t kVersionOff = 4;
constexpr uint32_t kPageSizeOff = 8;
constexpr uint32_t kPageCountOff = 12;
constexpr uint32_t kFreeHeadOff = 16;
constexpr uint32_t kFreeCountOff = 20;
constexpr uint32_t kMetaLenOff = 24;
constexpr uint32_t kMetaBytesOff = 28;
}  // namespace

uint32_t PageFile::MaxMetaSize(uint32_t page_size) {
  return page_size - kPageHeaderSize - kMetaBytesOff;
}

PageFile::~PageFile() {
  // Best effort: persist allocator state on close. A failure has no
  // caller to return to, but it must not vanish — recovery rebuilds
  // the allocator from the WAL, so log and move on.
  if (!read_only_) {
    Status st = PersistHeader();
    if (!st.ok()) {
      LAXML_LOG(kError) << "page file header persist on close ('"
                        << file_->path() << "'): " << st.ToString();
    }
  }
}

Result<std::unique_ptr<PageFile>> PageFile::Open(std::unique_ptr<File> file,
                                                 uint32_t page_size,
                                                 bool read_only) {
  if (page_size < kMinPageSize || (page_size & (page_size - 1)) != 0) {
    return Status::InvalidArgument("page size must be a power of two >= 512");
  }
  const bool empty = file->Size() == 0;
  if (empty && read_only) {
    return Status::InvalidArgument("read-only open of empty page file '" +
                                   file->path() + "'");
  }
  auto pf = std::unique_ptr<PageFile>(
      new PageFile(std::move(file), page_size, read_only));
  Status st = empty ? pf->PersistHeader() : pf->LoadHeader();
  if (!st.ok()) {
    pf->read_only_ = true;  // never stamp a header over a file we refused
    return st;
  }
  return pf;
}

Status PageFile::LoadHeader() {
  // Read a provisional header with the default page size to learn the
  // real one, then re-read if it differs.
  const uint64_t size = file_->Size();
  if (size < kPageHeaderSize + kMetaBytesOff) {
    return Status::Corruption("page file header truncated");
  }
  std::vector<uint8_t> buf(page_size_);
  LAXML_RETURN_IF_ERROR(file_->ReadAt(0, buf.size(), buf.data()));
  const uint8_t* p = buf.data() + kPageHeaderSize;
  if (DecodeFixed32(p + kMagicOff) != kFileMagic) {
    return Status::Corruption("bad magic in '" + file_->path() + "'");
  }
  if (DecodeFixed32(p + kVersionOff) != kFileVersion) {
    return Status::Corruption("unsupported page file version");
  }
  uint32_t stored_page_size = DecodeFixed32(p + kPageSizeOff);
  if (stored_page_size != page_size_) {
    if (size < stored_page_size) {
      return Status::Corruption("page file header truncated");
    }
    page_size_ = stored_page_size;
    buf.assign(page_size_, 0);
    LAXML_RETURN_IF_ERROR(file_->ReadAt(0, buf.size(), buf.data()));
    p = buf.data() + kPageHeaderSize;
  }
  PageView view(buf.data(), page_size_);
  if (!view.VerifyChecksum(0)) {
    return Status::Corruption("meta page checksum mismatch");
  }
  page_count_ = DecodeFixed32(p + kPageCountOff);
  free_head_ = DecodeFixed32(p + kFreeHeadOff);
  free_count_ = DecodeFixed32(p + kFreeCountOff);
  uint32_t meta_len = DecodeFixed32(p + kMetaLenOff);
  if (meta_len > MaxMetaSize(page_size_)) {
    return Status::Corruption("meta length out of bounds");
  }
  meta_.assign(p + kMetaBytesOff, p + kMetaBytesOff + meta_len);
  return Status::OK();
}

Status PageFile::PersistHeader() {
  std::vector<uint8_t> buf(page_size_, 0);
  PageView view(buf.data(), page_size_);
  view.Format(0, PageType::kMeta);
  uint8_t* p = buf.data() + kPageHeaderSize;
  EncodeFixed32(p + kMagicOff, kFileMagic);
  EncodeFixed32(p + kVersionOff, kFileVersion);
  EncodeFixed32(p + kPageSizeOff, page_size_);
  EncodeFixed32(p + kPageCountOff, page_count_);
  EncodeFixed32(p + kFreeHeadOff, free_head_);
  EncodeFixed32(p + kFreeCountOff, free_count_);
  EncodeFixed32(p + kMetaLenOff, static_cast<uint32_t>(meta_.size()));
  if (!meta_.empty()) {
    std::memcpy(p + kMetaBytesOff, meta_.data(), meta_.size());
  }
  view.SealChecksum();
  return file_->WriteAt(0, Slice(buf));
}

Status PageFile::CheckWritable() const {
  if (read_only_) return Status::NotSupported("page file opened read-only");
  return Status::OK();
}

Status PageFile::ReadPage(PageId id, uint8_t* buf) {
  if (id == 0 || id >= page_count_) {
    return Status::IOError("read of out-of-range page");
  }
  return file_->ReadAt(static_cast<uint64_t>(id) * page_size_, page_size_,
                       buf);
}

Status PageFile::WritePage(PageId id, const uint8_t* buf) {
  LAXML_RETURN_IF_ERROR(CheckWritable());
  if (id == 0 || id >= page_count_) {
    return Status::IOError("write of out-of-range page");
  }
  return file_->WriteAt(static_cast<uint64_t>(id) * page_size_,
                        Slice(buf, page_size_));
}

Result<PageId> PageFile::AllocatePage() {
  if (free_head_ != kInvalidPageId) {
    PageId id = free_head_;
    // The next pointer lives in the first 4 payload bytes of the free
    // page.
    std::vector<uint8_t> buf(page_size_);
    LAXML_RETURN_IF_ERROR(ReadPage(id, buf.data()));
    free_head_ = DecodeFixed32(buf.data() + kPageHeaderSize);
    --free_count_;
    return id;
  }
  if (page_count_ == kInvalidPageId) {
    return Status::ResourceExhausted("page file full");
  }
  return page_count_++;
}

Status PageFile::FreePage(PageId id) {
  LAXML_RETURN_IF_ERROR(CheckWritable());
  if (id == 0 || id >= page_count_) {
    return Status::InvalidArgument("free of invalid page id");
  }
  std::vector<uint8_t> buf(page_size_, 0);
  PageView view(buf.data(), page_size_);
  view.Format(id, PageType::kFree);
  EncodeFixed32(buf.data() + kPageHeaderSize, free_head_);
  view.SealChecksum();
  LAXML_RETURN_IF_ERROR(WritePage(id, buf.data()));
  free_head_ = id;
  ++free_count_;
  return Status::OK();
}

Status PageFile::WriteMeta(Slice meta) {
  LAXML_RETURN_IF_ERROR(CheckWritable());
  if (meta.size() > MaxMetaSize(page_size_)) {
    return Status::InvalidArgument("meta area overflow");
  }
  meta_.assign(meta.data(), meta.data() + meta.size());
  return PersistHeader();
}

Status PageFile::Sync() {
  LAXML_RETURN_IF_ERROR(CheckWritable());
  LAXML_RETURN_IF_ERROR(PersistHeader());
  return file_->Sync();
}

}  // namespace laxml
