#include "wal/log_format.h"

#include <cstring>

#include "common/crc32c.h"
#include "common/slice.h"

namespace laxml {

const char* WalOpName(WalOp op) {
  switch (op) {
    case WalOp::kInsertBefore:
      return "insertBefore";
    case WalOp::kInsertAfter:
      return "insertAfter";
    case WalOp::kInsertIntoFirst:
      return "insertIntoFirst";
    case WalOp::kInsertIntoLast:
      return "insertIntoLast";
    case WalOp::kDeleteNode:
      return "deleteNode";
    case WalOp::kReplaceNode:
      return "replaceNode";
    case WalOp::kReplaceContent:
      return "replaceContent";
    case WalOp::kInsertTopLevel:
      return "insertTopLevel";
    case WalOp::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* dst) {
  // Framed in place: reserve the header, write the body behind it, then
  // fill in the checksum and length over the finished body.
  const size_t header = dst->size();
  dst->reserve(header + 8 + 13 + record.payload.size());
  dst->resize(header + 8);
  dst->push_back(static_cast<uint8_t>(record.op));
  PutFixed64(dst, record.target);
  PutFixed32(dst, static_cast<uint32_t>(record.payload.size()));
  dst->insert(dst->end(), record.payload.begin(), record.payload.end());

  uint8_t* frame = dst->data() + header;
  const size_t body_len = dst->size() - header - 8;
  EncodeFixed32(frame, crc32c::Mask(crc32c::Value(frame + 8, body_len)));
  EncodeFixed32(frame + 4, static_cast<uint32_t>(body_len));
}

Status DecodeWalRecord(const uint8_t** p, const uint8_t* limit,
                       WalRecord* record) {
  const uint8_t* cur = *p;
  if (limit - cur < 8) {
    return Status::NotFound("end of log");
  }
  uint32_t stored_crc = crc32c::Unmask(DecodeFixed32(cur));
  uint32_t body_len = DecodeFixed32(cur + 4);
  cur += 8;
  if (static_cast<uint64_t>(limit - cur) < body_len || body_len < 13) {
    return Status::NotFound("torn record at log tail");
  }
  uint32_t actual_crc = crc32c::Value(cur, body_len);
  if (actual_crc != stored_crc) {
    return Status::NotFound("crc mismatch at log tail");
  }
  record->op = static_cast<WalOp>(cur[0]);
  if (cur[0] > static_cast<uint8_t>(WalOp::kCheckpoint)) {
    return Status::Corruption("unknown wal op code");
  }
  record->target = DecodeFixed64(cur + 1);
  uint32_t payload_len = DecodeFixed32(cur + 9);
  if (payload_len != body_len - 13) {
    return Status::Corruption("wal payload length mismatch");
  }
  record->payload.assign(cur + 13, cur + 13 + payload_len);
  *p = cur + body_len;
  return Status::OK();
}

}  // namespace laxml
