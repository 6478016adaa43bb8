#include "index/range_index.h"

namespace laxml {

Status RangeIndex::Insert(NodeId start_id, NodeId end_id,
                          RangeId range_id) {
  if (start_id == kInvalidNodeId || end_id < start_id) {
    return Status::InvalidArgument("bad id interval");
  }
  // Overlap checks against the neighbor below and above.
  auto after = entries_.lower_bound(start_id);
  if (after != entries_.end() && after->second.start_id <= end_id) {
    return Status::InvalidArgument("interval overlaps a following entry");
  }
  if (after != entries_.begin()) {
    auto before = std::prev(after);
    if (before->second.end_id >= start_id) {
      return Status::InvalidArgument("interval overlaps a preceding entry");
    }
  }
  entries_[start_id] = Entry{start_id, end_id, range_id};
  ++stats_.inserts;
  return Status::OK();
}

Result<RangeIndex::Entry> RangeIndex::LookupEntry(NodeId id) const {
  ++stats_.lookups;
  auto it = entries_.upper_bound(id);
  if (it == entries_.begin()) {
    return Status::NotFound("node id below every range");
  }
  --it;
  if (it->second.end_id < id) {
    return Status::NotFound("node id in an interval gap");
  }
  ++stats_.hits;
  return it->second;
}

Result<RangeId> RangeIndex::Lookup(NodeId id) const {
  LAXML_ASSIGN_OR_RETURN(Entry e, LookupEntry(id));
  return e.range_id;
}

Status RangeIndex::Erase(NodeId start_id) {
  auto it = entries_.find(start_id);
  if (it == entries_.end()) {
    return Status::NotFound("no interval starts at this id");
  }
  entries_.erase(it);
  ++stats_.erases;
  return Status::OK();
}

Status RangeIndex::Truncate(NodeId start_id, NodeId new_end_id) {
  auto it = entries_.find(start_id);
  if (it == entries_.end()) {
    return Status::NotFound("no interval starts at this id");
  }
  if (new_end_id < start_id || new_end_id > it->second.end_id) {
    return Status::InvalidArgument("truncate outside current interval");
  }
  it->second.end_id = new_end_id;
  return Status::OK();
}

std::string RangeIndex::ToTableString() const {
  std::string out = "RangeId  StartId  EndId\n";
  for (const auto& [start, e] : entries_) {
    out += std::to_string(e.range_id) + "  " + std::to_string(e.start_id) +
           "  " + std::to_string(e.end_id) + "\n";
  }
  return out;
}

}  // namespace laxml
