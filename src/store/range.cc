#include "store/range.h"

#include "common/slice.h"
#include "xml/token_codec.h"

namespace laxml {

void EncodeRangeMeta(const RangeMeta& meta, uint8_t* out) {
  EncodeFixed64(out, meta.prev);
  EncodeFixed64(out + 8, meta.next);
  EncodeFixed64(out + 16, meta.start_id);
  EncodeFixed64(out + 24, meta.id_count);
  EncodeFixed32(out + 32, meta.token_count);
  EncodeFixed32(out + 36, meta.byte_len);
  EncodeFixed32(out + 40, static_cast<uint32_t>(meta.depth_delta));
  EncodeFixed32(out + 44, static_cast<uint32_t>(meta.min_depth));
  EncodeFixed32(out + 48, meta.page);
  EncodeFixed16(out + 52, meta.slot);
  out[54] = meta.kind;
  out[55] = meta.codec;
}

RangeMeta DecodeRangeMeta(RangeId id, const uint8_t* in) {
  RangeMeta meta;
  meta.id = id;
  meta.prev = DecodeFixed64(in);
  meta.next = DecodeFixed64(in + 8);
  meta.start_id = DecodeFixed64(in + 16);
  meta.id_count = DecodeFixed64(in + 24);
  meta.token_count = DecodeFixed32(in + 32);
  meta.byte_len = DecodeFixed32(in + 36);
  meta.depth_delta = static_cast<int32_t>(DecodeFixed32(in + 40));
  meta.min_depth = static_cast<int32_t>(DecodeFixed32(in + 44));
  meta.page = DecodeFixed32(in + 48);
  meta.slot = DecodeFixed16(in + 52);
  meta.kind = in[54];
  meta.codec = in[55];
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
