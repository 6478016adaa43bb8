#include "store/range.h"

#include "common/slice.h"
#include "xml/token_codec.h"

namespace laxml {

/// id_count occupies the low 56 bits of its directory word; the codec
/// version rides in the top byte (see RangeMeta::codec).
inline constexpr uint64_t kIdCountMask = (uint64_t{1} << 56) - 1;

void EncodeRangeMeta(const RangeMeta& meta, uint8_t* out48) {
  EncodeFixed64(out48, meta.prev);
  EncodeFixed64(out48 + 8, meta.next);
  EncodeFixed64(out48 + 16, meta.start_id);
  EncodeFixed64(out48 + 24, (meta.id_count & kIdCountMask) |
                                (static_cast<uint64_t>(meta.codec) << 56));
  EncodeFixed32(out48 + 32, meta.token_count);
  EncodeFixed32(out48 + 36, meta.byte_len);
  EncodeFixed32(out48 + 40, static_cast<uint32_t>(meta.depth_delta));
  EncodeFixed32(out48 + 44, static_cast<uint32_t>(meta.min_depth));
}

RangeMeta DecodeRangeMeta(RangeId id, const uint8_t* in48) {
  RangeMeta meta;
  meta.id = id;
  meta.prev = DecodeFixed64(in48);
  meta.next = DecodeFixed64(in48 + 8);
  meta.start_id = DecodeFixed64(in48 + 16);
  uint64_t id_word = DecodeFixed64(in48 + 24);
  meta.id_count = id_word & kIdCountMask;
  uint8_t codec_byte = static_cast<uint8_t>(id_word >> 56);
  // Pre-dictionary stores wrote a zero byte here; their payloads are v1.
  meta.codec = codec_byte == 0 ? kTokenCodecV1 : codec_byte;
  meta.token_count = DecodeFixed32(in48 + 32);
  meta.byte_len = DecodeFixed32(in48 + 36);
  meta.depth_delta = static_cast<int32_t>(DecodeFixed32(in48 + 40));
  meta.min_depth = static_cast<int32_t>(DecodeFixed32(in48 + 44));
  return meta;
}

Status ComputeDepthProfile(const uint8_t* payload, size_t len,
                           TokenCodecContext ctx, int32_t* depth_delta,
                           int32_t* min_depth) {
  TokenReader reader{Slice(payload, len), ctx};
  int32_t depth = 0;
  int32_t min = 0;
  TokenType type;
  while (!reader.AtEnd()) {
    LAXML_RETURN_IF_ERROR(reader.Skip(&type));
    if (TokenOpensScope(type)) {
      ++depth;
    } else if (TokenClosesScope(type)) {
      --depth;
      if (depth < min) min = depth;
    }
  }
  *depth_delta = depth;
  *min_depth = min;
  return Status::OK();
}

}  // namespace laxml
