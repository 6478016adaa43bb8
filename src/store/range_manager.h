// RangeManager: owns the physical life of Ranges — payload records,
// range ids, the range-meta tree (each RangeMeta carries its payload's
// heap location), the document-order chain, and the coarse Range Index —
// and exposes the three structural mutations the Store needs:
// insert a range at a chain position, split a range at a token boundary,
// delete a range. The revised storage model of paper Section 4.4
// ("chained blocks, which contain ordered ranges") is realized here as
// heap pages + an explicit range chain, which preserves document order
// identically while letting pages be managed as a heap.

#ifndef LAXML_STORE_RANGE_MANAGER_H_
#define LAXML_STORE_RANGE_MANAGER_H_

#include <functional>
#include <memory>
#include <unordered_map>

#include "btree/btree.h"
#include "index/range_index.h"
#include "storage/record_store.h"
#include "store/range.h"

namespace laxml {

/// Persistent bootstrap state of the range layer.
struct RangeManagerState {
  PageId data_head = kInvalidPageId;  ///< Payload heap chain head.
  PageId meta_tree_root = kInvalidPageId;
  RangeId next_range_id = 1;  ///< Ids are never reused.
  RangeId first_range = kInvalidRangeId;
  RangeId last_range = kInvalidRangeId;
  uint64_t range_count = 0;
};

/// Counters for benches and tests.
struct RangeManagerStats {
  uint64_t ranges_created = 0;
  uint64_t ranges_deleted = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
};

class RangeManager {
 public:
  /// `dict` resolves the symbols of every payload (the store's name
  /// dictionary); it must outlive the manager.
  static Result<std::unique_ptr<RangeManager>> Create(
      Pager* pager, const NameDictionary* dict);
  static Result<std::unique_ptr<RangeManager>> Open(
      Pager* pager, const RangeManagerState& state,
      const NameDictionary* dict);

  /// Reads a range's metadata.
  Result<RangeMeta> GetMeta(RangeId id) const;

  /// Reads a range's encoded token payload.
  Result<std::vector<uint8_t>> ReadPayload(RangeId id) const;

  /// Pins `len` bytes of a range's payload from `offset`
  /// (RecordStore::PinSlice at the range's resident location).
  Result<RecordSlice> PinSlice(RangeId id, size_t offset, size_t len) const;

  /// The payload's heap location, from the resident map; touches no
  /// page.
  Result<RecordLocation> Locate(RangeId id) const;

  /// Creates a new range from `payload` (stored token form) and
  /// links it into the chain immediately after `left` (kInvalidRangeId
  /// = insert at chain head). `start_id`/`id_count`/`token_count`
  /// describe the payload. Registers the id interval in the Range Index
  /// when id_count > 0.
  Result<RangeId> InsertRangeAfter(RangeId left, Slice payload,
                                   NodeId start_id, uint64_t id_count,
                                   uint32_t token_count);

  /// Splits `cut.range` just before the token at `cut`: the head keeps
  /// the `cut.token_index` tokens (`cut.offset` bytes, `cut.begins_before`
  /// node begins) before it; the rest moves to a fresh tail range chained
  /// right after. Returns the tail's id. Both halves' Range Index entries
  /// are fixed up. Fails on offset 0 or byte_len (nothing to split).
  Result<RangeId> Split(const TokenPos& cut);

  /// Unlinks and destroys a range (payload, meta, index interval).
  Status DeleteRange(RangeId id);

  /// True when `id` and its chain successor can be merged without
  /// breaking the consecutive-ids invariant: either side may be id-less,
  /// or the successor's ids must continue exactly where `id`'s end.
  Result<bool> CanMergeWithNext(RangeId id) const;

  /// Merges the chain successor into `id` (payload concatenation, one
  /// combined interval, successor destroyed). Caller must have checked
  /// CanMergeWithNext. The inverse of Split.
  Status MergeWithNext(RangeId id);

  /// Heap page anchoring the range payload (paper's "BlockId").
  Result<PageId> BlockOf(RangeId id) const {
    LAXML_ASSIGN_OR_RETURN(RecordLocation loc, Locate(id));
    return loc.page;
  }

  RangeId first_range() const { return first_range_; }
  RangeId last_range() const { return last_range_; }
  uint64_t range_count() const { return range_count_; }

  /// The dictionary that resolves every payload's symbols.
  const NameDictionary* dictionary() const { return dict_; }

  /// Live totals across all range payloads — the numerator/denominator
  /// of the effective bytes-per-token gauge. Maintained incrementally;
  /// rebuilt from the directory on open.
  uint64_t total_payload_bytes() const { return total_payload_bytes_; }
  uint64_t total_tokens() const { return total_tokens_; }

  /// The coarse index (Section 4.3).
  RangeIndex& index() { return index_; }
  const RangeIndex& index() const { return index_; }

  /// Visits ranges in document order. `fn` returns false to stop.
  Status ForEachRange(
      const std::function<bool(const RangeMeta&)>& fn) const;

  /// Visits every RangeMeta in the meta tree in id order, not along the
  /// chain, so a broken chain hides none. `fn` returns false to stop.
  Status ForEachMeta(const std::function<bool(const RangeMeta&)>& fn) const;

  /// Counts one more range visited by a walk over the chain. A walk
  /// that visits more ranges than the store holds has revisited one, so
  /// it follows a cycle and would follow it forever. Returns Corruption
  /// once `*visited` passes range_count, or the number of RangeMetas
  /// (resident locations) when that is smaller.
  Status CountChainVisit(uint64_t* visited) const;

  /// The payload heap.
  RecordStore* range_records() const { return records_.get(); }

  /// The RangeId -> RangeMeta tree (integrity auditor).
  const BTree& meta_tree() const { return meta_tree_; }

  /// Number of resident locations (one per range).
  size_t location_count() const { return locations_.size(); }

  /// Test-only seams: the resident location map, and a meta write that
  /// touches nothing else, for tests that plant inconsistencies.
  std::unordered_map<RangeId, RecordLocation>& TestOnlyLocations() {
    return locations_;
  }
  Status TestOnlyPutMeta(const RangeMeta& meta) { return PutMeta(meta); }

  RangeManagerState state() const;
  const RangeManagerStats& stats() const { return stats_; }
  const RecordStoreStats& record_stats() const { return records_->stats(); }

 private:
  RangeManager(Pager* pager, std::unique_ptr<RecordStore> records,
               BTree meta_tree, const RangeManagerState& state,
               const NameDictionary* dict);

  /// Rebuilds the in-memory Range Index, the resident locations and the
  /// payload totals from the meta tree.
  Status RebuildIndex();

  /// Writes a range's meta to the tree and its location to the resident
  /// map; DeleteMeta drops both.
  Status PutMeta(const RangeMeta& meta);
  Status DeleteMeta(RangeId id);

  Pager* pager_;
  std::unique_ptr<RecordStore> records_;
  mutable BTree meta_tree_;
  /// Resident copy of every RangeMeta's payload location: a read that
  /// knows only a range id (a Partial Index hit) pins the payload page
  /// without descending the meta tree. Only mutations change it, so
  /// concurrent readers see a stable map.
  std::unordered_map<RangeId, RecordLocation> locations_;
  RangeId next_range_id_;
  RangeId first_range_;
  RangeId last_range_;
  uint64_t range_count_;
  RangeIndex index_;
  RangeManagerStats stats_;
  const NameDictionary* const dict_;
  uint64_t total_payload_bytes_ = 0;
  uint64_t total_tokens_ = 0;
};

}  // namespace laxml

#endif  // LAXML_STORE_RANGE_MANAGER_H_
