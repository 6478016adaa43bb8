// The Partial (lazy) Index — paper Section 5, after Stonebraker's "The
// Case for Partial Indexes". "A combination between a real index ... and
// a cache": whenever an update or read has to *locate* a node the hard
// way (range-index probe + in-range scan), the discovered locations of
// the node's begin and end tokens are memoized here, so a repeated
// search for the same logical position jumps straight to them. Nothing
// is ever indexed eagerly; the index's content is exactly the lookup
// history — laziness as a feature.
//
// An entry is the paper's Table 4 row — NodeID, BeginToken, EndToken —
// with each token column a TokenPos (range, byte offset, token index,
// node begins before it, codec): the same coordinates a locate returns,
// a cursor seeks to and a split cuts at. A hit therefore stands in for
// the whole locate, begin count included. ToTableString() prints the
// Table 4 view, one range per column.
//
// Memory-resident (as in the paper's prototype) with a bounded capacity
// and LRU eviction. Entries tied to a range are invalidated when that
// range splits, shrinks or dies.
//
// Thread safety: the table is striped into shards (node id -> shard),
// each with its own mutex, map, LRU list and range reverse-map, so
// concurrent READERS memoizing different nodes contend only when their
// ids collide on a shard — this is what lets SharedStore run lookups
// under a shared latch even though every lookup may mutate the memo.
// Lookup copies the entry out under the shard lock; pointers into the
// table are never exposed (another shard's eviction could free them).
// Small capacities (< kShardThreshold) use a single shard so the exact
// global-LRU eviction order the worked-example tests assert on is
// preserved.

#ifndef LAXML_INDEX_PARTIAL_INDEX_H_
#define LAXML_INDEX_PARTIAL_INDEX_H_

#include <cstddef>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/mutex.h"
#include "common/relaxed_counter.h"
#include "common/thread_annotations.h"
#include "index/range_index.h"
#include "xml/token.h"

namespace laxml {

/// Counters for benches and tests. RelaxedCounters: bumped from
/// concurrent reader threads (each shard's structural state is under its
/// mutex; the stats are the only cross-shard shared writes).
struct PartialIndexStats {
  RelaxedCounter lookups;
  RelaxedCounter hits;          ///< Lookup found a usable entry.
  RelaxedCounter begin_records;
  RelaxedCounter end_records;
  RelaxedCounter evictions;
  RelaxedCounter invalidations;  ///< Entries dropped by range mutations.
};

/// One memoized node: where its begin token and (when known) its end
/// token live. Either half may be present independently — the paper's
/// worked example (Table 4) records them as separate discoveries. Each
/// half is a full TokenPos, so a hit seeks, decodes (with the half's
/// codec) and splits without probing the range metadata or counting
/// node begins again.
struct PartialEntry {
  enum Half : uint8_t { kBegin, kEnd };

  std::optional<TokenPos> begin;
  std::optional<TokenPos> end;
};

/// Bounded, lazily-populated, sharded NodeId -> PartialEntry map.
class PartialIndex {
 public:
  /// Capacities at or above this are striped across kNumShards shards;
  /// below it a single shard preserves exact global LRU order.
  static constexpr size_t kShardThreshold = 4096;
  static constexpr size_t kNumShards = 16;  // power of two

  /// `capacity` = maximum number of node entries; 0 disables the index
  /// entirely (every Lookup misses, every Record is a no-op), which is
  /// how the plain range-index configurations of Table 5 run.
  explicit PartialIndex(size_t capacity);

  PartialIndex(const PartialIndex&) = delete;
  PartialIndex& operator=(const PartialIndex&) = delete;

  /// Copies the entry for `id` into *out and returns true on hit; false
  /// on miss. Bumps LRU recency. Copy-out (not a pointer) so the result
  /// stays valid after the shard lock drops, whatever other threads do.
  bool Lookup(NodeId id, PartialEntry* out);

  /// Memoizes where `id`'s begin or end token sits.
  void Record(NodeId id, PartialEntry::Half half, const TokenPos& pos);

  /// Drops every entry that references `range` (called when the range
  /// splits, is rewritten, or is deleted — its offsets are stale).
  void InvalidateRange(RangeId range);

  /// Drops a single node's entry (node deleted).
  void Invalidate(NodeId id);

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }
  size_t shard_count() const { return num_shards_; }
  const PartialIndexStats& stats() const { return stats_; }
  void ResetStats();

  /// Debug rendering in the shape of the paper's Table 4.
  std::string ToTableString() const;

  /// Const iteration over every memoized entry (integrity auditor).
  /// Unlike Lookup this does not bump LRU recency — auditing must not
  /// perturb the eviction order it is inspecting. Each shard is locked
  /// while its entries are visited; `fn` must not reenter the index.
  template <typename Fn>
  void ForEachEntry(Fn fn) const {
    for (size_t s = 0; s < num_shards_; ++s) {
      const Shard& shard = shards_[s];
      MutexLock lk(shard.mu);
      for (const auto& [id, node] : shard.entries) fn(id, node.entry);
    }
  }

 private:
  struct Node {
    PartialEntry entry;
    std::list<NodeId>::iterator lru_pos;
  };

  /// One lock stripe: map + LRU + reverse map, all guarded by `mu`.
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<NodeId, Node> entries LAXML_GUARDED_BY(mu);
    std::list<NodeId> lru LAXML_GUARDED_BY(mu);  // front = least recently used
    // Reverse map for invalidation: range -> node ids with entries here.
    std::unordered_map<RangeId, std::unordered_set<NodeId>> by_range
        LAXML_GUARDED_BY(mu);
  };

  Shard& ShardFor(NodeId id) const {
    return shards_[static_cast<size_t>(id) & shard_mask_];
  }

  // Helpers named *Locked require the shard's mutex to be held.
  void TouchLocked(Shard& shard, Node& node, NodeId id)
      LAXML_REQUIRES(shard.mu);
  PartialEntry* GetOrCreateLocked(Shard& shard, NodeId id)
      LAXML_REQUIRES(shard.mu);
  /// Drops `id` from `range`'s reverse entry, or from those of both of
  /// `entry`'s halves.
  void UnregisterLocked(Shard& shard, NodeId id, RangeId range)
      LAXML_REQUIRES(shard.mu);
  void UnregisterLocked(Shard& shard, NodeId id, const PartialEntry& entry)
      LAXML_REQUIRES(shard.mu);
  void EvictIfNeededLocked(Shard& shard) LAXML_REQUIRES(shard.mu);

  size_t capacity_;
  size_t num_shards_ = 1;
  size_t shard_mask_ = 0;
  size_t shard_capacity_;  ///< capacity_ split evenly across shards
  std::unique_ptr<Shard[]> shards_;
  mutable PartialIndexStats stats_;
};

}  // namespace laxml

#endif  // LAXML_INDEX_PARTIAL_INDEX_H_
