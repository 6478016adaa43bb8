#include "index/partial_index.h"

#include "obs/request_context.h"

namespace laxml {

PartialIndex::PartialIndex(size_t capacity) : capacity_(capacity) {
  num_shards_ = capacity_ >= kShardThreshold ? kNumShards : 1;
  shard_mask_ = num_shards_ - 1;
  shard_capacity_ = num_shards_ > 1 ? capacity_ / num_shards_ : capacity_;
  if (capacity_ > 0 && shard_capacity_ == 0) shard_capacity_ = 1;
  shards_ = std::make_unique<Shard[]>(num_shards_);
}

void PartialIndex::TouchLocked(Shard& shard, Node& node, NodeId id) {
  shard.lru.erase(node.lru_pos);
  node.lru_pos = shard.lru.insert(shard.lru.end(), id);
}

bool PartialIndex::Lookup(NodeId id, PartialEntry* out) {
  if (!enabled()) return false;
  ++stats_.lookups;
  Shard& shard = ShardFor(id);
  MutexLock lk(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) {
    LAXML_RC_ADD(partial_index_misses, 1);
    return false;
  }
  ++stats_.hits;
  LAXML_RC_ADD(partial_index_hits, 1);
  TouchLocked(shard, it->second, id);
  *out = it->second.entry;
  return true;
}

PartialEntry* PartialIndex::GetOrCreateLocked(Shard& shard, NodeId id) {
  auto it = shard.entries.find(id);
  if (it != shard.entries.end()) {
    TouchLocked(shard, it->second, id);
    return &it->second.entry;
  }
  EvictIfNeededLocked(shard);
  Node& node = shard.entries[id];
  node.lru_pos = shard.lru.insert(shard.lru.end(), id);
  return &node.entry;
}

void PartialIndex::EvictIfNeededLocked(Shard& shard) {
  while (shard.entries.size() >= shard_capacity_ && !shard.lru.empty()) {
    NodeId victim = shard.lru.front();
    auto it = shard.entries.find(victim);
    if (it != shard.entries.end()) {
      UnregisterLocked(shard, victim, it->second.entry);
      shard.entries.erase(it);
    }
    shard.lru.pop_front();
    ++stats_.evictions;
  }
}

void PartialIndex::UnregisterLocked(Shard& shard, NodeId id, RangeId range) {
  auto it = shard.by_range.find(range);
  if (it != shard.by_range.end()) {
    it->second.erase(id);
    if (it->second.empty()) shard.by_range.erase(it);
  }
}

void PartialIndex::UnregisterLocked(Shard& shard, NodeId id,
                                    const PartialEntry& entry) {
  if (entry.begin) UnregisterLocked(shard, id, entry.begin->range);
  if (entry.end) UnregisterLocked(shard, id, entry.end->range);
}

void PartialIndex::Record(NodeId id, PartialEntry::Half half,
                          const TokenPos& pos) {
  if (!enabled()) return;
  Shard& shard = ShardFor(id);
  MutexLock lk(shard.mu);
  PartialEntry* e = GetOrCreateLocked(shard, id);
  const bool begin = half == PartialEntry::kBegin;
  std::optional<TokenPos>& slot = begin ? e->begin : e->end;
  const std::optional<TokenPos>& other = begin ? e->end : e->begin;
  // Re-registration under a new range: clean the old reverse entry
  // unless the other half still uses it.
  if (slot && slot->range != pos.range &&
      (!other || other->range != slot->range)) {
    UnregisterLocked(shard, id, slot->range);
  }
  slot = pos;
  shard.by_range[pos.range].insert(id);
  ++(begin ? stats_.begin_records : stats_.end_records);
}

void PartialIndex::InvalidateRange(RangeId range) {
  // A range's memoized nodes can hash to any shard; visit them all.
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    MutexLock lk(shard.mu);
    auto it = shard.by_range.find(range);
    if (it == shard.by_range.end()) continue;
    // An entry may keep its other half if that half lives in a
    // different range; drop the whole entry only when nothing valid
    // remains.
    auto ids = std::move(it->second);
    shard.by_range.erase(it);
    for (NodeId id : ids) {
      auto eit = shard.entries.find(id);
      if (eit == shard.entries.end()) continue;
      PartialEntry& e = eit->second.entry;
      if (e.begin && e.begin->range == range) e.begin.reset();
      if (e.end && e.end->range == range) e.end.reset();
      ++stats_.invalidations;
      if (!e.begin && !e.end) {
        shard.lru.erase(eit->second.lru_pos);
        shard.entries.erase(eit);
      } else {
        // Keep the reverse registration for the surviving half.
        RangeId keep = e.begin ? e.begin->range : e.end->range;
        shard.by_range[keep].insert(id);
      }
    }
  }
}

void PartialIndex::Invalidate(NodeId id) {
  Shard& shard = ShardFor(id);
  MutexLock lk(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) return;
  UnregisterLocked(shard, id, it->second.entry);
  shard.lru.erase(it->second.lru_pos);
  shard.entries.erase(it);
  ++stats_.invalidations;
}

void PartialIndex::Clear() {
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    MutexLock lk(shard.mu);
    shard.entries.clear();
    shard.lru.clear();
    shard.by_range.clear();
  }
}

size_t PartialIndex::size() const {
  size_t total = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    MutexLock lk(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

void PartialIndex::ResetStats() {
  stats_.lookups = 0;
  stats_.hits = 0;
  stats_.begin_records = 0;
  stats_.end_records = 0;
  stats_.evictions = 0;
  stats_.invalidations = 0;
}

std::string PartialIndex::ToTableString() const {
  std::string out = "NodeID  BeginToken(Range)  EndToken(Range)\n";
  ForEachEntry([&out](NodeId id, const PartialEntry& e) {
    out += std::to_string(id) + "  " +
           (e.begin ? std::to_string(e.begin->range) : "-") + "  " +
           (e.end ? std::to_string(e.end->range) : "-") + "\n";
  });
  return out;
}

}  // namespace laxml
