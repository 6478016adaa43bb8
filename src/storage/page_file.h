// Page files: the page layer of the substrate. A PageFile is an array
// of fixed-size pages with an allocator (free chain) and a small client
// metadata area, both persisted in page 0 (the meta page). It stores
// its bytes in a File (file.h): a PosixFile on disk, a MemFile for
// in-memory stores, or a FaultyFile under test — the same format and
// free chain either way.
//
// Page 0 layout (after the common page header):
//   magic u32 | version u32 | page_size u32 | page_count u32 |
//   free_head u32 | free_count u32 | meta_len u32 | meta bytes ...
//
// Freed pages form a singly-linked chain: the first 4 payload bytes of a
// free page hold the next free page id.

#ifndef LAXML_STORAGE_PAGE_FILE_H_
#define LAXML_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/file.h"
#include "storage/page.h"

namespace laxml {

/// Page array + allocator + meta area over a File.
class PageFile {
 public:
  /// Opens the page file held in `file`. An empty file is initialized
  /// with `page_size`; for an existing one the stored page size wins and
  /// `page_size` is ignored.
  ///
  /// With `read_only` the file must not be empty: WritePage / FreePage /
  /// WriteMeta / Sync fail with NotSupported and the header is not
  /// rewritten on close. AllocatePage still works — it only moves
  /// in-memory allocator state, which lets WAL replay build post-crash
  /// pages in the buffer pool without touching the disk image
  /// (laxml_fsck).
  static Result<std::unique_ptr<PageFile>> Open(
      std::unique_ptr<File> file, uint32_t page_size = kDefaultPageSize,
      bool read_only = false);
  ~PageFile();

  /// Reads page `id` into `buf` (page_size bytes). A page allocated but
  /// never written reads as zeros.
  Status ReadPage(PageId id, uint8_t* buf);

  /// Writes page `id` from `buf` (page_size bytes).
  Status WritePage(PageId id, const uint8_t* buf);

  /// Allocates a page, popping the free chain when it is not empty. The
  /// new page's content is unspecified; callers must format it.
  Result<PageId> AllocatePage();

  /// Pushes a page onto the free chain. The page must not be in use.
  Status FreePage(PageId id);

  /// Number of pages, including the meta page and freed pages.
  uint32_t page_count() const { return page_count_; }
  /// Number of pages on the free chain, and its head.
  uint32_t free_page_count() const { return free_count_; }
  PageId free_head() const { return free_head_; }
  uint32_t page_size() const { return page_size_; }
  bool read_only() const { return read_only_; }
  File* file() { return file_.get(); }

  /// Reads the client metadata area (engine bootstrap state: tree roots,
  /// id counters, range chain endpoints).
  Result<std::vector<uint8_t>> ReadMeta() { return meta_; }

  /// Replaces the client metadata area. Limited to roughly half a page.
  Status WriteMeta(Slice meta);

  /// Writes the header and makes every page durable.
  Status Sync();

  /// Maximum client metadata size for a given page size.
  static uint32_t MaxMetaSize(uint32_t page_size);

 private:
  PageFile(std::unique_ptr<File> file, uint32_t page_size, bool read_only)
      : file_(std::move(file)), page_size_(page_size), read_only_(read_only) {}

  Status LoadHeader();
  Status PersistHeader();
  Status CheckWritable() const;

  std::unique_ptr<File> file_;
  uint32_t page_size_;
  bool read_only_;
  uint32_t page_count_ = 1;  // meta page
  PageId free_head_ = kInvalidPageId;
  uint32_t free_count_ = 0;
  std::vector<uint8_t> meta_;
};

}  // namespace laxml

#endif  // LAXML_STORAGE_PAGE_FILE_H_
