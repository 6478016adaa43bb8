// The Range Index (paper Section 4.3, Tables 2-3): the *coarse-grained*
// index. It maps intervals of node ids — [startId, endId], one interval
// per Range — to the Range that physically holds those nodes' tokens.
// It is deliberately "fuzzier" than a full index: a lookup yields only
// the containing Range; the exact token still has to be found by
// scanning within it (or by a Partial Index hit).
//
// Because ids are assigned monotonically at insert time and a Range is
// an insert unit (or a piece of one after splits), the ids inside a
// Range are consecutive and ascending — so disjoint intervals fully
// describe the id->range relation, and the index stays small: its size
// is the number of ranges, not the number of nodes.
//
// The index is memory-resident and rebuilt on open from the persistent
// range directory (a scan of range metadata), mirroring the paper's
// prototype where only ranges "become entries in the index".

#ifndef LAXML_INDEX_RANGE_INDEX_H_
#define LAXML_INDEX_RANGE_INDEX_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/relaxed_counter.h"
#include "common/status.h"
#include "xml/token.h"

namespace laxml {

/// Identifier of a Range; RangeManager allocates them and never reuses one.
using RangeId = uint64_t;
inline constexpr RangeId kInvalidRangeId = 0;

/// Where one token sits in the range chain: the coordinates a locate
/// finds, a Partial Index memo keeps, a cursor seeks to and a split cuts
/// at. Valid only while `range` is not split, merged, rewritten or
/// deleted.
struct TokenPos {
  RangeId range = kInvalidRangeId;
  uint32_t offset = 0;       ///< Byte offset within the range payload.
  uint32_t token_index = 0;  ///< Tokens in the range before this one.
  /// Node-beginning tokens in the range before this one: the token's
  /// node id (when it begins one) is the range's start id plus this.
  uint32_t begins_before = 0;
  /// Token codec of `range`, so a read at this position decodes without
  /// probing the range metadata. A live range's codec never changes.
  uint8_t codec = 0;
  bool operator==(const TokenPos&) const = default;
};

/// Counters for benches and tests.
/// RelaxedCounters: const Lookup bumps lookups/hits and runs from
/// concurrent reader threads under SharedStore's shared latch.
struct RangeIndexStats {
  RelaxedCounter lookups;
  RelaxedCounter hits;
  RelaxedCounter inserts;
  RelaxedCounter erases;
};

/// Interval map NodeId -> RangeId.
class RangeIndex {
 public:
  struct Entry {
    NodeId start_id;
    NodeId end_id;  ///< Inclusive.
    RangeId range_id;
  };

  /// Registers a range's id interval. Intervals must be disjoint;
  /// InvalidArgument on overlap. Ranges without ids (all end tokens)
  /// simply have no entry.
  Status Insert(NodeId start_id, NodeId end_id, RangeId range_id);

  /// Finds the range holding `id`. NotFound when no interval covers it.
  Result<RangeId> Lookup(NodeId id) const;

  /// Full entry lookup (interval bounds included).
  Result<Entry> LookupEntry(NodeId id) const;

  /// Removes the interval beginning at `start_id`.
  Status Erase(NodeId start_id);

  /// Shrinks the interval starting at `start_id` to end at `new_end_id`
  /// (used by splits, where the tail becomes a new interval).
  Status Truncate(NodeId start_id, NodeId new_end_id);

  /// Number of entries (== number of id-bearing ranges). The paper's
  /// "many, granular entries" vs "few, coarse, large entries" axis.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  void Clear() { entries_.clear(); }

  /// Ordered-by-start-id iteration, e.g. to print the Tables 2-3 view.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [start, e] : entries_) fn(e);
  }

  const RangeIndexStats& stats() const { return stats_; }

  /// Debug rendering in the shape of the paper's Table 2/3.
  std::string ToTableString() const;

 private:
  // Keyed by start id; values hold the inclusive end and the range.
  std::map<NodeId, Entry> entries_;
  mutable RangeIndexStats stats_;
};

}  // namespace laxml

#endif  // LAXML_INDEX_RANGE_INDEX_H_
