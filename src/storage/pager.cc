#include "storage/pager.h"

namespace laxml {

Pager::Pager(std::unique_ptr<PageFile> file, size_t frames)
    : file_(std::move(file)) {
  pool_ = std::make_unique<BufferPool>(file_.get(), frames);
}

Status Pager::CheckPageSize(const PagerOptions& options) {
  if (options.page_size > 32768) {
    return Status::InvalidArgument(
        "page size above 32768 not supported (16-bit slot offsets)");
  }
  return Status::OK();
}

Result<std::unique_ptr<Pager>> Pager::Open(std::unique_ptr<File> file,
                                           const PagerOptions& options) {
  LAXML_ASSIGN_OR_RETURN(
      auto page_file,
      PageFile::Open(std::move(file), options.page_size, options.read_only));
  return std::unique_ptr<Pager>(
      new Pager(std::move(page_file), options.pool_frames));
}

Result<std::unique_ptr<Pager>> Pager::OpenFile(const std::string& path,
                                               const PagerOptions& options,
                                               const FileWrapper& wrapper) {
  LAXML_RETURN_IF_ERROR(CheckPageSize(options));
  LAXML_ASSIGN_OR_RETURN(auto file,
                         OpenWrapped(path, options.read_only, wrapper));
  return Open(std::move(file), options);
}

Result<std::unique_ptr<Pager>> Pager::OpenInMemory(
    const PagerOptions& options) {
  LAXML_RETURN_IF_ERROR(CheckPageSize(options));
  return Open(std::make_unique<MemFile>(), options);
}

Status Pager::FreePage(PageId id) {
  if (defer_frees_) {
    LAXML_RETURN_IF_ERROR(pool_->DiscardPage(id));
    deferred_frees_.push_back(id);
    return Status::OK();
  }
  LAXML_RETURN_IF_ERROR(pool_->Evict(id));
  return file_->FreePage(id);
}

Status Pager::Sync() {
  LAXML_RETURN_IF_ERROR(pool_->FlushAll());
  // Checkpoint boundary: pages freed during the epoch may now join the
  // file's free chain — nothing in the new checkpoint references them.
  for (PageId id : deferred_frees_) {
    LAXML_RETURN_IF_ERROR(file_->FreePage(id));
  }
  deferred_frees_.clear();
  return file_->Sync();
}

}  // namespace laxml
