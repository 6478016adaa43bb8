// Record store: a heap of variable-length records (the serialized Range
// payloads) on slotted pages, with overflow chains for records larger
// than a page. A record is addressed by its RecordLocation alone: the
// store keeps no directory and allocates no ids. Its owner records each
// location where it keeps the record's other metadata (RangeManager
// stores it in the range's RangeMeta, the paper's Range Index "BlockId",
// Tables 2-3).
//
// This is the substrate the paper assumes ("the principles of storage
// already defined ... by relational database systems have an immediate
// application here", Section 9): Ranges are records, and like relational
// records they are sequences of variable-sized fields (tokens).
//
// Physical layout:
//   * Inline record:   one slot on a kSlotted page.
//   * Overflow record: the slot holds only [first_overflow_page u32];
//     the bytes live on a chain of kOverflow pages, each of which is
//     [next u32][piece bytes ...] in its payload.
// The kSlotted pages form one doubly linked heap chain from data_head().

#ifndef LAXML_STORAGE_RECORD_STORE_H_
#define LAXML_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/relaxed_counter.h"
#include "common/status.h"
#include "storage/pager.h"
#include "storage/slotted_page.h"

namespace laxml {

/// Counters for benches and tests.
/// RelaxedCounters: const Read/PinSlice bump reads and run from
/// concurrent reader threads under SharedStore's shared latch.
struct RecordStoreStats {
  RelaxedCounter reads;
  RelaxedCounter overflow_records;
  RelaxedCounter data_pages;  ///< Live heap pages (excludes overflow).
};

/// Where a record lives: its anchor slot, its kind and its byte length.
struct RecordLocation {
  static constexpr uint8_t kInline = 0;
  static constexpr uint8_t kOverflow = 1;

  PageId page = kInvalidPageId;  ///< Heap page holding the anchor slot.
  uint16_t slot = 0;
  uint8_t kind = kInline;
  uint32_t len = 0;  ///< Record byte length.

  bool operator==(const RecordLocation&) const = default;
};

/// Bytes of one record slice. When the slice lies in one page the bytes
/// are the pinned buffer-pool frame itself and stay valid (and the frame
/// stays resident) until the RecordSlice is destroyed or reassigned;
/// otherwise they are an owned copy.
class RecordSlice {
 public:
  Slice bytes() const { return pin_.valid() ? borrowed_ : Slice(copy_); }
  size_t size() const { return bytes().size(); }
  /// True when the bytes are the pinned frame, not a copy.
  bool borrowed() const { return pin_.valid(); }

  /// The bytes as an owned vector; moves the copy out when there is one.
  std::vector<uint8_t> ToVector() &&;

 private:
  friend class RecordStore;

  PageHandle pin_;
  Slice borrowed_;
  std::vector<uint8_t> copy_;
};

/// The record store. Mutations are single-threaded (SharedStore's
/// exclusive latch); const reads may run concurrently under its shared
/// latch.
class RecordStore {
 public:
  /// Attaches to the heap chain starting at `data_head` (kInvalidPageId
  /// for a fresh store) and rebuilds the in-memory free-space map by
  /// walking it.
  static Result<std::unique_ptr<RecordStore>> Open(Pager* pager,
                                                   PageId data_head);

  /// Writes a record to the heap (a slot, or an overflow chain plus its
  /// anchor slot) and returns where it went.
  Result<RecordLocation> Place(Slice payload);

  /// Replaces the record at `loc`: in place when it stays inline and its
  /// page has room, else removed and placed anew. Returns the new
  /// location.
  Result<RecordLocation> Replace(const RecordLocation& loc, Slice payload);

  /// Frees what Place wrote: the overflow chain, the slot and, if that
  /// empties it, the heap page.
  Status Remove(const RecordLocation& loc);

  /// Reads a record's payload.
  Result<std::vector<uint8_t>> Read(const RecordLocation& loc) const;

  /// The `len` bytes starting at `offset`, clamped to the record end
  /// (empty at or past it). An inline record pins its one heap page and
  /// lends its bytes. An overflow record pins its anchor page, then
  /// walks the chain from the first piece, pinning each piece up to the
  /// one the slice ends in: a slice starting in piece k pins k + 2
  /// pages, so the last token of a 64 KiB range at 4 KiB pages pins 18.
  /// A slice inside one piece lends that piece's bytes; one spanning
  /// pieces is copied.
  Result<RecordSlice> PinSlice(const RecordLocation& loc, size_t offset,
                               size_t len) const;

  /// Head of the heap page chain; the owner persists it.
  PageId data_head() const { return data_head_; }

  const RecordStoreStats& stats() const { return stats_; }

 private:
  RecordStore(Pager* pager, PageId data_head)
      : pager_(pager), data_head_(data_head) {}

  Status RebuildFreeSpaceMap();
  /// Finds (or allocates) a heap page with >= `need` free bytes.
  Result<PageId> PageWithSpace(uint32_t need);
  void NoteFreeSpace(PageId page, uint32_t free);
  void ForgetFreeSpace(PageId page);
  Status WriteOverflowChain(Slice payload, PageId* first_page);
  Status FreeOverflowChain(PageId first_page);
  /// Unlinks and frees a heap page that has become empty.
  Status ReleaseHeapPage(PageId page);

  Pager* pager_;
  PageId data_head_;
  // Free-space tracking: page -> free bytes, plus an inverted index for
  // best-fit-ish lookup (smallest page that fits).
  std::map<PageId, uint32_t> page_free_;
  std::multimap<uint32_t, PageId> free_index_;
  mutable RecordStoreStats stats_;
};

}  // namespace laxml

#endif  // LAXML_STORAGE_RECORD_STORE_H_
