#include "store/range_manager.h"

#include <algorithm>

namespace laxml {

RangeManager::RangeManager(Pager* pager,
                           std::unique_ptr<RecordStore> records,
                           BTree meta_tree, const RangeManagerState& state)
    : pager_(pager),
      records_(std::move(records)),
      meta_tree_(std::move(meta_tree)),
      next_range_id_(state.next_range_id),
      first_range_(state.first_range),
      last_range_(state.last_range),
      range_count_(state.range_count) {}

Result<std::unique_ptr<RangeManager>> RangeManager::Create(Pager* pager) {
  LAXML_ASSIGN_OR_RETURN(auto records,
                         RecordStore::Open(pager, kInvalidPageId));
  LAXML_ASSIGN_OR_RETURN(BTree meta_tree,
                         BTree::Create(pager, kRangeMetaValueSize));
  RangeManagerState state;
  return std::unique_ptr<RangeManager>(new RangeManager(
      pager, std::move(records), std::move(meta_tree), state));
}

Result<std::unique_ptr<RangeManager>> RangeManager::Open(
    Pager* pager, const RangeManagerState& state) {
  LAXML_ASSIGN_OR_RETURN(auto records,
                         RecordStore::Open(pager, state.data_head));
  LAXML_ASSIGN_OR_RETURN(
      BTree meta_tree,
      BTree::Open(pager, state.meta_tree_root, kRangeMetaValueSize));
  auto manager = std::unique_ptr<RangeManager>(new RangeManager(
      pager, std::move(records), std::move(meta_tree), state));
  LAXML_RETURN_IF_ERROR(manager->RebuildIndex());
  return manager;
}

RangeManagerState RangeManager::state() const {
  RangeManagerState s;
  s.data_head = records_->data_head();
  s.meta_tree_root = meta_tree_.root();
  s.next_range_id = next_range_id_;
  s.first_range = first_range_;
  s.last_range = last_range_;
  s.range_count = range_count_;
  return s;
}

Status RangeManager::ForEachMeta(
    const std::function<bool(const RangeMeta&)>& fn) const {
  BTree::Iterator it = meta_tree_.NewIterator();
  LAXML_RETURN_IF_ERROR(it.SeekToFirst());
  while (it.Valid()) {
    if (!fn(DecodeRangeMeta(it.key(), it.value()))) break;
    LAXML_RETURN_IF_ERROR(it.Next());
  }
  return Status::OK();
}

Status RangeManager::RebuildIndex() {
  index_.Clear();
  locations_.clear();
  total_payload_bytes_ = 0;
  total_tokens_ = 0;
  Status index_status;
  LAXML_RETURN_IF_ERROR(ForEachMeta([&](const RangeMeta& meta) {
    if (meta.has_ids()) {
      index_status = index_.Insert(meta.start_id, meta.end_id(), meta.id);
      if (!index_status.ok()) return false;
    }
    locations_[meta.id] = meta.location();
    total_payload_bytes_ += meta.byte_len;
    total_tokens_ += meta.token_count;
    return true;
  }));
  return index_status;
}

Result<RangeMeta> RangeManager::GetMeta(RangeId id) const {
  uint8_t v[kRangeMetaValueSize];
  LAXML_ASSIGN_OR_RETURN(bool found, meta_tree_.Get(id, v));
  if (!found) {
    return Status::NotFound("range " + std::to_string(id));
  }
  return DecodeRangeMeta(id, v);
}

Status RangeManager::PutMeta(const RangeMeta& meta) {
  uint8_t v[kRangeMetaValueSize];
  EncodeRangeMeta(meta, v);
  LAXML_RETURN_IF_ERROR(
      meta_tree_.Insert(meta.id, Slice(v, kRangeMetaValueSize)));
  locations_[meta.id] = meta.location();
  return Status::OK();
}

Status RangeManager::DeleteMeta(RangeId id) {
  LAXML_RETURN_IF_ERROR(meta_tree_.Delete(id));
  locations_.erase(id);
  return Status::OK();
}

Result<RecordLocation> RangeManager::Locate(RangeId id) const {
  auto it = locations_.find(id);
  if (it == locations_.end()) {
    return Status::NotFound("range " + std::to_string(id));
  }
  return it->second;
}

Result<std::vector<uint8_t>> RangeManager::ReadPayload(RangeId id) const {
  LAXML_ASSIGN_OR_RETURN(RecordLocation loc, Locate(id));
  return records_->Read(loc);
}

Result<RecordSlice> RangeManager::PinSlice(RangeId id, size_t offset,
                                           size_t len) const {
  LAXML_ASSIGN_OR_RETURN(RecordLocation loc, Locate(id));
  return records_->PinSlice(loc, offset, len);
}

Result<RangeId> RangeManager::InsertRangeAfter(RangeId left, Slice payload,
                                               NodeId start_id,
                                               uint64_t id_count,
                                               uint32_t token_count,
                                               uint8_t codec) {
  LAXML_ASSIGN_OR_RETURN(RecordLocation loc, records_->Place(payload));
  const RangeId rid = next_range_id_++;
  RangeMeta meta;
  meta.id = rid;
  meta.start_id = id_count > 0 ? start_id : kInvalidNodeId;
  meta.id_count = id_count;
  meta.token_count = token_count;
  meta.set_location(loc);
  meta.codec = codec;
  LAXML_RETURN_IF_ERROR(ComputeDepthProfile(
      payload.data(), payload.size(), codec_for(meta), &meta.depth_delta,
      &meta.min_depth));
  meta.prev = left;

  if (left == kInvalidRangeId) {
    meta.next = first_range_;
  } else {
    LAXML_ASSIGN_OR_RETURN(RangeMeta left_meta, GetMeta(left));
    meta.next = left_meta.next;
    left_meta.next = rid;
    LAXML_RETURN_IF_ERROR(PutMeta(left_meta));
  }
  if (meta.next != kInvalidRangeId) {
    LAXML_ASSIGN_OR_RETURN(RangeMeta next_meta, GetMeta(meta.next));
    next_meta.prev = rid;
    LAXML_RETURN_IF_ERROR(PutMeta(next_meta));
  } else {
    last_range_ = rid;
  }
  if (left == kInvalidRangeId) {
    first_range_ = rid;
  }
  LAXML_RETURN_IF_ERROR(PutMeta(meta));
  if (meta.has_ids()) {
    LAXML_RETURN_IF_ERROR(
        index_.Insert(meta.start_id, meta.end_id(), meta.id));
  }
  ++range_count_;
  ++stats_.ranges_created;
  total_payload_bytes_ += meta.byte_len;
  total_tokens_ += meta.token_count;
  return rid;
}

Result<RangeId> RangeManager::Split(const TokenPos& cut) {
  const RangeId id = cut.range;
  LAXML_ASSIGN_OR_RETURN(RangeMeta meta, GetMeta(id));
  if (cut.offset == 0 || cut.offset >= meta.byte_len) {
    return Status::InvalidArgument("split offset not strictly inside range");
  }
  LAXML_ASSIGN_OR_RETURN(std::vector<uint8_t> payload, ReadPayload(id));
  if (payload.size() != meta.byte_len) {
    return Status::Corruption("range payload length mismatch");
  }

  // Tail metadata.
  uint64_t tail_id_count = meta.id_count - cut.begins_before;
  NodeId tail_start =
      tail_id_count > 0 ? meta.start_id + cut.begins_before : kInvalidNodeId;
  Slice tail_bytes(payload.data() + cut.offset, payload.size() - cut.offset);
  uint32_t tail_tokens = meta.token_count - cut.token_index;

  // Fix the index before structurally changing anything: the original
  // interval shrinks (or disappears) and the tail interval appears.
  if (meta.has_ids()) {
    if (cut.begins_before == 0) {
      LAXML_RETURN_IF_ERROR(index_.Erase(meta.start_id));
    } else if (cut.begins_before < meta.id_count) {
      LAXML_RETURN_IF_ERROR(index_.Truncate(
          meta.start_id, meta.start_id + cut.begins_before - 1));
    }
  }

  // Create the tail range right after the head (InsertRangeAfter also
  // registers the tail interval). The tail inherits the head's codec —
  // it is the same payload bytes.
  LAXML_ASSIGN_OR_RETURN(
      RangeId tail,
      InsertRangeAfter(id, tail_bytes, tail_start, tail_id_count,
                       tail_tokens, meta.codec));

  // Shrink the head payload and metadata.
  LAXML_ASSIGN_OR_RETURN(RangeMeta head, GetMeta(id));  // next updated
  LAXML_ASSIGN_OR_RETURN(
      RecordLocation head_loc,
      records_->Replace(head.location(), Slice(payload.data(), cut.offset)));
  head.set_location(head_loc);
  head.token_count = cut.token_index;
  head.id_count = cut.begins_before;
  if (cut.begins_before == 0) head.start_id = kInvalidNodeId;
  LAXML_RETURN_IF_ERROR(ComputeDepthProfile(
      payload.data(), cut.offset, codec_for(head), &head.depth_delta,
      &head.min_depth));
  LAXML_RETURN_IF_ERROR(PutMeta(head));

  // InsertRangeAfter counted the tail's bytes/tokens on top of the
  // (unshrunk) head's — the split moved them, it didn't add them.
  total_payload_bytes_ -= tail_bytes.size();
  total_tokens_ -= tail_tokens;

  ++stats_.splits;
  return tail;
}

Result<bool> RangeManager::CanMergeWithNext(RangeId id) const {
  LAXML_ASSIGN_OR_RETURN(RangeMeta meta, GetMeta(id));
  if (meta.next == kInvalidRangeId) return false;
  LAXML_ASSIGN_OR_RETURN(RangeMeta next_meta, GetMeta(meta.next));
  // Payload concatenation is byte-wise; mixed codecs would corrupt.
  if (meta.codec != next_meta.codec) return false;
  if (!meta.has_ids() || !next_meta.has_ids()) return true;
  return next_meta.start_id == meta.start_id + meta.id_count;
}

Status RangeManager::MergeWithNext(RangeId id) {
  LAXML_ASSIGN_OR_RETURN(bool mergeable, CanMergeWithNext(id));
  if (!mergeable) {
    return Status::InvalidArgument(
        "ranges have non-contiguous id intervals");
  }
  LAXML_ASSIGN_OR_RETURN(RangeMeta meta, GetMeta(id));
  LAXML_ASSIGN_OR_RETURN(RangeMeta next_meta, GetMeta(meta.next));
  LAXML_ASSIGN_OR_RETURN(auto head_payload, ReadPayload(id));
  LAXML_ASSIGN_OR_RETURN(auto tail_payload, ReadPayload(meta.next));
  head_payload.insert(head_payload.end(), tail_payload.begin(),
                      tail_payload.end());
  LAXML_ASSIGN_OR_RETURN(
      RecordLocation merged,
      records_->Replace(meta.location(), Slice(head_payload)));

  // Index: both intervals collapse into one.
  if (meta.has_ids()) {
    LAXML_RETURN_IF_ERROR(index_.Erase(meta.start_id));
  }
  if (next_meta.has_ids()) {
    LAXML_RETURN_IF_ERROR(index_.Erase(next_meta.start_id));
  }

  RangeId dead = meta.next;
  meta.set_location(merged);
  meta.token_count += next_meta.token_count;
  if (!meta.has_ids()) meta.start_id = next_meta.start_id;
  meta.id_count += next_meta.id_count;
  // Depth profile composes: the tail's running minimum is offset by the
  // head's net delta.
  int32_t combined_min = meta.min_depth;
  if (meta.depth_delta + next_meta.min_depth < combined_min) {
    combined_min = meta.depth_delta + next_meta.min_depth;
  }
  meta.min_depth = combined_min;
  meta.depth_delta += next_meta.depth_delta;
  meta.next = next_meta.next;
  LAXML_RETURN_IF_ERROR(PutMeta(meta));
  if (meta.has_ids()) {
    LAXML_RETURN_IF_ERROR(
        index_.Insert(meta.start_id, meta.end_id(), meta.id));
  }
  if (meta.next != kInvalidRangeId) {
    LAXML_ASSIGN_OR_RETURN(RangeMeta after, GetMeta(meta.next));
    after.prev = id;
    LAXML_RETURN_IF_ERROR(PutMeta(after));
  } else {
    last_range_ = id;
  }
  LAXML_RETURN_IF_ERROR(records_->Remove(next_meta.location()));
  LAXML_RETURN_IF_ERROR(DeleteMeta(dead));
  --range_count_;
  ++stats_.merges;
  return Status::OK();
}

Status RangeManager::DeleteRange(RangeId id) {
  LAXML_ASSIGN_OR_RETURN(RangeMeta meta, GetMeta(id));
  if (meta.prev != kInvalidRangeId) {
    LAXML_ASSIGN_OR_RETURN(RangeMeta prev_meta, GetMeta(meta.prev));
    prev_meta.next = meta.next;
    LAXML_RETURN_IF_ERROR(PutMeta(prev_meta));
  } else {
    first_range_ = meta.next;
  }
  if (meta.next != kInvalidRangeId) {
    LAXML_ASSIGN_OR_RETURN(RangeMeta next_meta, GetMeta(meta.next));
    next_meta.prev = meta.prev;
    LAXML_RETURN_IF_ERROR(PutMeta(next_meta));
  } else {
    last_range_ = meta.prev;
  }
  if (meta.has_ids()) {
    LAXML_RETURN_IF_ERROR(index_.Erase(meta.start_id));
  }
  LAXML_RETURN_IF_ERROR(records_->Remove(meta.location()));
  LAXML_RETURN_IF_ERROR(DeleteMeta(id));
  --range_count_;
  total_payload_bytes_ -= meta.byte_len;
  total_tokens_ -= meta.token_count;
  ++stats_.ranges_deleted;
  return Status::OK();
}

Status RangeManager::ForEachRange(
    const std::function<bool(const RangeMeta&)>& fn) const {
  RangeId cur = first_range_;
  uint64_t visited = 0;
  while (cur != kInvalidRangeId) {
    LAXML_RETURN_IF_ERROR(CountChainVisit(&visited));
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, GetMeta(cur));
    if (!fn(meta)) break;
    cur = meta.next;
  }
  return Status::OK();
}

Status RangeManager::CountChainVisit(uint64_t* visited) const {
  const uint64_t ranges = std::min<uint64_t>(range_count_, locations_.size());
  if (++*visited > ranges) {
    return Status::Corruption(
        "range chain visits more than the store's " + std::to_string(ranges) +
        " range(s): it cycles");
  }
  return Status::OK();
}

}  // namespace laxml
