// Pager: the facade the rest of the engine talks to. Bundles a PageFile
// with a BufferPool and the client metadata area, and keeps the two
// consistent (e.g. a page is evicted from the pool before it is returned
// to the file's free chain). The PageFile's bytes live in a File
// (storage/file.h): on disk, in memory, or behind a FaultyFile.

#ifndef LAXML_STORAGE_PAGER_H_
#define LAXML_STORAGE_PAGER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace laxml {

/// Knobs for opening a pager.
struct PagerOptions {
  /// Page (block) size; power of two in [512, 32768].
  uint32_t page_size = kDefaultPageSize;
  /// Number of buffer pool frames.
  size_t pool_frames = 256;
  /// Open the page file read-only (file-backed pagers only): the file
  /// must exist, nothing is ever written back, and mutations surface as
  /// NotSupported. Used by laxml_fsck for offline inspection.
  bool read_only = false;
};

/// Owning facade over PageFile + BufferPool.
class Pager {
 public:
  /// Opens (or creates) a file-backed pager. A set `wrapper` is passed
  /// the file before anything reads it (StoreOptions::file_wrapper).
  static Result<std::unique_ptr<Pager>> OpenFile(
      const std::string& path, const PagerOptions& options,
      const FileWrapper& wrapper = nullptr);

  /// Creates a fresh in-memory pager (tests, benches) over a MemFile.
  static Result<std::unique_ptr<Pager>> OpenInMemory(
      const PagerOptions& options);

  /// Fetches an existing page through the pool.
  Result<PageHandle> Fetch(PageId id) { return pool_->Fetch(id); }

  /// Allocates + formats a new page, pinned and dirty.
  Result<PageHandle> New(PageType type) { return pool_->New(type); }

  /// Returns a page to the free chain. The page must be unpinned.
  /// In immediate mode the cached frame is flushed-and-evicted and the
  /// file's free chain updated at once. In deferred mode (required by
  /// logical WAL recovery — see DESIGN.md) the frame is discarded
  /// without write-back and the page only joins the file's free chain
  /// at the next Sync(), so on-disk content the last checkpoint still
  /// references is never clobbered mid-epoch.
  Status FreePage(PageId id);

  /// Enables deferred freeing (set together with the pool's no-steal
  /// mode when a WAL governs recovery).
  void set_defer_frees(bool v) { defer_frees_ = v; }
  size_t deferred_free_count() const { return deferred_frees_.size(); }

  /// Client metadata (engine bootstrap state).
  Result<std::vector<uint8_t>> ReadMeta() { return file_->ReadMeta(); }
  Status WriteMeta(Slice meta) { return file_->WriteMeta(meta); }

  /// Flushes all dirty frames and syncs the file.
  Status Sync();

  uint32_t page_size() const { return file_->page_size(); }
  uint32_t page_count() const { return file_->page_count(); }
  uint32_t free_page_count() const { return file_->free_page_count(); }
  PageFile* file() { return file_.get(); }
  BufferPool* pool() { return pool_.get(); }
  const BufferPoolStats& pool_stats() const { return pool_->stats(); }

 private:
  Pager(std::unique_ptr<PageFile> file, size_t frames);

  /// Rejects pages above 32 KiB before any file is opened; PageFile
  /// checks the rest.
  static Status CheckPageSize(const PagerOptions& options);
  static Result<std::unique_ptr<Pager>> Open(std::unique_ptr<File> file,
                                             const PagerOptions& options);

  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  bool defer_frees_ = false;
  std::vector<PageId> deferred_frees_;
};

}  // namespace laxml

#endif  // LAXML_STORAGE_PAGER_H_
