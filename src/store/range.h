// The Range (paper Section 4.2): "a sequence of tokens ... the XML
// analogue of the relational Record, whose size and existence is defined
// by the application usage pattern". A Range is an insert unit — each
// Store insert creates one (or several, under a granularity cap), and
// inserting *into* an existing Range splits it.
//
// Invariants:
//   * Tokens within a Range are consecutive in document order.
//   * Node ids within a Range are consecutive ascending integers
//     (start_id, start_id+1, ...), because the Range descends from one
//     insert unit whose ids were allocated sequentially. This is what
//     lets ids be regenerated by scanning instead of stored (Sec. 4.3).
//   * Document order across Ranges is the doubly-linked prev/next chain.
//
// A Range's payload (its tokens in the stored form of xml/token_codec.h,
// names dictionary-coded) is one RecordStore record; its RangeMeta, the
// one persistent per-range entry, lives in the range-meta B+-tree and
// carries the record's location (the paper's Range Index row with its
// BlockId, Tables 2-3).

#ifndef LAXML_STORE_RANGE_H_
#define LAXML_STORE_RANGE_H_

#include <cstdint>

#include "common/status.h"
#include "index/range_index.h"
#include "storage/record_store.h"
#include "xml/token.h"
#include "xml/token_codec.h"

namespace laxml {

/// Persistent per-range metadata (fixed 56-byte meta-tree value).
struct RangeMeta {
  RangeId id = kInvalidRangeId;
  RangeId prev = kInvalidRangeId;  ///< Document-order predecessor.
  RangeId next = kInvalidRangeId;  ///< Document-order successor.
  /// Id of the first node-beginning token, kInvalidNodeId when the range
  /// holds no node-beginning tokens (pure end-token tails after splits).
  NodeId start_id = kInvalidNodeId;
  /// Number of node-beginning tokens (ids) in the range.
  uint64_t id_count = 0;
  /// Total token count.
  uint32_t token_count = 0;
  /// Encoded payload length in bytes.
  uint32_t byte_len = 0;
  /// Net nesting change across the range (scope opens - closes).
  int32_t depth_delta = 0;
  /// Minimum running nesting change within the range (<= 0 when the
  /// range closes scopes opened before it). Lets the end-token search
  /// skip a whole range from metadata alone: if the entry depth plus
  /// min_depth stays positive, the sought end token is not inside.
  int32_t min_depth = 0;
  /// The payload record's anchor in the heap; its length is byte_len.
  PageId page = kInvalidPageId;
  uint16_t slot = 0;
  uint8_t kind = RecordLocation::kInline;

  /// The payload's heap location.
  RecordLocation location() const { return {page, slot, kind, byte_len}; }
  /// Points the range at a placed payload (anchor and byte_len).
  void set_location(const RecordLocation& loc) {
    page = loc.page;
    slot = loc.slot;
    kind = loc.kind;
    byte_len = loc.len;
  }

  /// Inclusive last id; only meaningful when id_count > 0.
  NodeId end_id() const { return start_id + id_count - 1; }
  bool has_ids() const { return id_count > 0; }

  bool operator==(const RangeMeta&) const = default;
};

/// Size of the encoded meta-tree value.
inline constexpr uint32_t kRangeMetaValueSize = 56;

/// Encodes meta (without `id`, which is the tree key) into a
/// kRangeMetaValueSize-byte buffer: [prev u64][next u64][start_id u64]
/// [id_count u64][token_count u32][byte_len u32][depth_delta i32]
/// [min_depth i32][page u32][slot u16][kind u8][reserved u8 = 0].
void EncodeRangeMeta(const RangeMeta& meta, uint8_t* out);

/// Decodes a meta-tree value; `id` is supplied by the caller.
RangeMeta DecodeRangeMeta(RangeId id, const uint8_t* in);

/// Scans a stored-form payload computing (depth_delta, min_depth);
/// `dict` resolves its symbols.
Status ComputeDepthProfile(const uint8_t* payload, size_t len,
                           const NameDictionary* dict, int32_t* depth_delta,
                           int32_t* min_depth);

}  // namespace laxml

#endif  // LAXML_STORE_RANGE_H_
