// Record store: variable-length records (the serialized Range payloads)
// on slotted heap pages, with overflow chains for records larger than a
// page and a B+-tree directory mapping RecordId -> location, which is
// also kept resident in memory.
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
//
// Directory value (16 bytes): [page u32][slot u16][kind u16][len u32]
//                             [reserved u32]

#ifndef LAXML_STORAGE_RECORD_STORE_H_
#define LAXML_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "btree/btree.h"
#include "common/relaxed_counter.h"
#include "common/status.h"
#include "storage/pager.h"
#include "storage/slotted_page.h"

namespace laxml {

/// Stable identifier of a record; never reused.
using RecordId = uint64_t;
inline constexpr RecordId kInvalidRecordId = 0;

/// Persistent bootstrap state; the owner stores this in the meta area.
struct RecordStoreState {
  PageId directory_root = kInvalidPageId;
  RecordId next_record_id = 1;
  PageId data_head = kInvalidPageId;  ///< Heap page chain head.
};

/// Counters for benches and tests.
/// RelaxedCounters: const Read/PinSlice bump reads and run from
/// concurrent reader threads under SharedStore's shared latch.
struct RecordStoreStats {
  RelaxedCounter inserts;
  RelaxedCounter deletes;
  RelaxedCounter updates;
  RelaxedCounter reads;
  RelaxedCounter overflow_records;
  RelaxedCounter data_pages;  ///< Live heap pages (excludes overflow).
};

/// Where a record lives: the decoded directory value.
struct RecordLocation {
  static constexpr uint16_t kInline = 0;
  static constexpr uint16_t kOverflow = 1;

  PageId page = kInvalidPageId;  ///< Heap page holding the anchor slot.
  uint16_t slot = 0;
  uint16_t kind = kInline;
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
///
/// The directory is kept twice: the B-tree is the persistent copy, and
/// a resident map, loaded at Open and updated beside every tree write,
/// answers every lookup. Only mutations change the map, so readers see
/// a stable one.
class RecordStore {
 public:
  /// Creates a fresh store (allocates the directory tree).
  static Result<std::unique_ptr<RecordStore>> Create(Pager* pager);

  /// Re-attaches to an existing store: loads the resident directory
  /// from the directory tree and rebuilds the in-memory free-space map
  /// by walking the heap page chain.
  static Result<std::unique_ptr<RecordStore>> Open(
      Pager* pager, const RecordStoreState& state);

  /// Inserts a record, assigning a fresh RecordId.
  Result<RecordId> Insert(Slice payload);

  /// Replaces the payload of an existing record.
  Status Update(RecordId id, Slice payload);

  /// Removes a record.
  Status Delete(RecordId id);

  /// Reads a record's payload.
  Result<std::vector<uint8_t>> Read(RecordId id) const;

  /// The `len` bytes starting at `offset`, clamped to the record end
  /// (empty at or past it). An inline record pins its one heap page and
  /// lends its bytes. An overflow record pins its anchor page, then
  /// walks the chain from the first piece, pinning each piece up to the
  /// one the slice ends in: a slice starting in piece k pins k + 2
  /// pages, so the last token of a 64 KiB range at 4 KiB pages pins 18.
  /// A slice inside one piece lends that piece's bytes; one spanning
  /// pieces is copied.
  Result<RecordSlice> PinSlice(RecordId id, size_t offset,
                               size_t len) const;

  /// Location of a record from the resident directory; touches no page.
  Result<RecordLocation> Locate(RecordId id) const;

  /// Heap page that anchors the record (the paper's "BlockId" column of
  /// the Range Index, Tables 2-3).
  Result<PageId> PageOf(RecordId id) const;

  /// True if the record exists.
  bool Exists(RecordId id) const { return resident_.count(id) != 0; }

  /// Number of live records (resident directory entries).
  size_t record_count() const { return resident_.size(); }

  /// State to persist in the meta area (changes after mutations).
  RecordStoreState state() const;

  const RecordStoreStats& stats() const { return stats_; }

  /// The RecordId -> location directory tree (integrity auditor).
  const BTree& directory() const { return directory_; }

  /// Visits every entry of the directory tree (not the resident map) in
  /// RecordId order with its decoded location: anchor page/slot, kind
  /// and byte length. Read-only; the integrity auditor cross-checks
  /// these entries against heap pages, overflow chains and the resident
  /// directory.
  Status ForEachRecord(
      const std::function<bool(RecordId id, PageId page, uint16_t slot,
                               uint16_t kind, uint32_t len)>& fn) const;

  /// Test-only seam: the resident directory, for tests that make it
  /// disagree with the tree.
  std::unordered_map<RecordId, RecordLocation>& TestOnlyResident() {
    return resident_;
  }

 private:
  RecordStore(Pager* pager, BTree directory, RecordStoreState state);

  Status RebuildFreeSpaceMap();
  /// Finds (or allocates) a heap page with >= `need` free bytes.
  Result<PageId> PageWithSpace(uint32_t need);
  void NoteFreeSpace(PageId page, uint32_t free);
  void ForgetFreeSpace(PageId page);
  /// Writes `payload` to the heap (a slot, or an overflow chain plus its
  /// anchor slot) and returns where it went.
  Result<RecordLocation> Place(Slice payload);
  /// Frees what Place wrote: the overflow chain, the slot and, if that
  /// empties it, the heap page.
  Status Remove(const RecordLocation& loc);
  /// Writes a directory entry to the tree and the resident map.
  Status PutDirectory(RecordId id, const RecordLocation& loc);
  Status WriteOverflowChain(Slice payload, PageId* first_page);
  Status FreeOverflowChain(PageId first_page);
  /// Unlinks and frees a heap page that has become empty.
  Status ReleaseHeapPage(PageId page);

  Pager* pager_;
  BTree directory_;
  /// Resident copy of the directory tree.
  std::unordered_map<RecordId, RecordLocation> resident_;
  RecordId next_record_id_;
  PageId data_head_;
  // Free-space tracking: page -> free bytes, plus an inverted index for
  // best-fit-ish lookup (smallest page that fits).
  std::map<PageId, uint32_t> page_free_;
  std::multimap<uint32_t, PageId> free_index_;
  mutable RecordStoreStats stats_;
};

}  // namespace laxml

#endif  // LAXML_STORAGE_RECORD_STORE_H_
