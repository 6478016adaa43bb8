#include "net/wire.h"

#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "common/varint.h"
#include "xml/token_codec.h"

namespace laxml {
namespace net {

namespace {

// Fixed32 helpers (little-endian, matching the page layer's layout).
void AppendFixed32(std::vector<uint8_t>* dst, uint32_t v) {
  dst->push_back(static_cast<uint8_t>(v));
  dst->push_back(static_cast<uint8_t>(v >> 8));
  dst->push_back(static_cast<uint8_t>(v >> 16));
  dst->push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t ReadFixed32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// The mutating opcodes and the Table-1 operation each one runs.
constexpr std::pair<OpCode, WalOp> kMutations[] = {
    {OpCode::kInsertBefore, WalOp::kInsertBefore},
    {OpCode::kInsertAfter, WalOp::kInsertAfter},
    {OpCode::kInsertIntoFirst, WalOp::kInsertIntoFirst},
    {OpCode::kInsertIntoLast, WalOp::kInsertIntoLast},
    {OpCode::kInsertTopLevel, WalOp::kInsertTopLevel},
    {OpCode::kDeleteNode, WalOp::kDeleteNode},
    {OpCode::kReplaceNode, WalOp::kReplaceNode},
    {OpCode::kReplaceContent, WalOp::kReplaceContent},
};

// Which payload fields an opcode carries, shared by both codec
// directions so they cannot drift apart.
bool HasTarget(OpCode op) {
  const std::optional<WalOp> m = MutationOf(op);
  return op == OpCode::kReadNode || (m && *m != WalOp::kInsertTopLevel);
}

bool HasFragment(OpCode op) {
  const std::optional<WalOp> m = MutationOf(op);
  return m && *m != WalOp::kDeleteNode;
}

bool ReturnsId(OpCode op) {
  return HasFragment(op);  // every fragment-carrying op returns a new id
}

bool ReturnsTokens(OpCode op) {
  return op == OpCode::kRead || op == OpCode::kReadNode;
}

bool ReturnsText(OpCode op) {
  return op == OpCode::kGetMetrics || op == OpCode::kExplain;
}

// Wraps a finished body in a frame header in place: `dst` grew by the
// body starting at `body_start`.
void SealFrame(std::vector<uint8_t>* dst, size_t body_start) {
  const size_t body_len = dst->size() - body_start;
  std::vector<uint8_t> header;
  header.reserve(kFrameHeaderSize);
  AppendFixed32(&header, static_cast<uint32_t>(body_len));
  AppendFixed32(&header,
                crc32c::Mask(crc32c::Value(dst->data() + body_start,
                                           body_len)));
  dst->insert(dst->begin() + static_cast<ptrdiff_t>(body_start),
              header.begin(), header.end());
}

// The one opcode check, for both directions: a byte past the table or
// a retired value is not an opcode.
constexpr uint8_t kRetiredOpCode = 12;  // was GET_STATS

Result<OpCode> DecodeOpCode(uint8_t raw) {
  if (raw > kMaxOpCode || raw == kRetiredOpCode) {
    return Status::Corruption("unknown opcode " + std::to_string(raw));
  }
  return static_cast<OpCode>(raw);
}

Result<uint64_t> DecodeVarint(Slice body, size_t* pos, const char* what) {
  uint64_t v = 0;
  const uint8_t* p = GetVarint64(body.data() + *pos,
                                 body.data() + body.size(), &v);
  if (p == nullptr) {
    return Status::Corruption(std::string("wire body: bad varint for ") +
                              what);
  }
  *pos = static_cast<size_t>(p - body.data());
  return v;
}

}  // namespace

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kPing: return "PING";
    case OpCode::kInsertBefore: return "INSERT_BEFORE";
    case OpCode::kInsertAfter: return "INSERT_AFTER";
    case OpCode::kInsertIntoFirst: return "INSERT_INTO_FIRST";
    case OpCode::kInsertIntoLast: return "INSERT_INTO_LAST";
    case OpCode::kInsertTopLevel: return "INSERT_TOP_LEVEL";
    case OpCode::kDeleteNode: return "DELETE_NODE";
    case OpCode::kReplaceNode: return "REPLACE_NODE";
    case OpCode::kReplaceContent: return "REPLACE_CONTENT";
    case OpCode::kRead: return "READ";
    case OpCode::kReadNode: return "READ_NODE";
    case OpCode::kXPath: return "XPATH";
    case OpCode::kCheckIntegrity: return "CHECK_INTEGRITY";
    case OpCode::kGetMetrics: return "GET_METRICS";
    case OpCode::kExplain: return "EXPLAIN";
  }
  return "UNKNOWN";
}

std::optional<WalOp> MutationOf(OpCode op) {
  for (const auto& [code, wal_op] : kMutations) {
    if (code == op) return wal_op;
  }
  return std::nullopt;
}

OpCode OpCodeOf(WalOp op) {
  for (const auto& [code, wal_op] : kMutations) {
    if (wal_op == op) return code;
  }
  return OpCode::kPing;
}

void EncodeRequest(const Request& req, std::vector<uint8_t>* dst) {
  const size_t body_start = dst->size();
  uint8_t op_byte = static_cast<uint8_t>(req.op);
  if (req.trace_id != 0) op_byte |= kTraceRequestFlag;
  if (req.deadline_ms != kNoDeadline) op_byte |= kDeadlineRequestFlag;
  dst->push_back(op_byte);
  PutVarint64(dst, req.request_id);
  if (req.trace_id != 0) PutVarint64(dst, req.trace_id);
  if (req.deadline_ms != kNoDeadline) PutVarint64(dst, req.deadline_ms);
  if (HasTarget(req.op)) PutVarint64(dst, req.target);
  if (HasFragment(req.op)) {
    for (const Token& t : req.data) EncodeToken(t, dst);
  }
  if (req.op == OpCode::kXPath) {
    dst->insert(dst->end(), req.expr.begin(), req.expr.end());
  }
  if (req.op == OpCode::kGetMetrics) {
    dst->push_back(static_cast<uint8_t>(req.metrics_format));
  }
  if (req.op == OpCode::kExplain) {
    dst->push_back(static_cast<uint8_t>(req.explain_mode));
    dst->insert(dst->end(), req.expr.begin(), req.expr.end());
  }
  SealFrame(dst, body_start);
}

void EncodeResponse(const Response& resp, std::vector<uint8_t>* dst) {
  const size_t body_start = dst->size();
  dst->push_back(static_cast<uint8_t>(resp.op));
  PutVarint64(dst, resp.request_id);
  dst->push_back(static_cast<uint8_t>(resp.status.code()));
  const std::string& msg = resp.status.message();
  PutVarint64(dst, msg.size());
  dst->insert(dst->end(), msg.begin(), msg.end());
  if (resp.status.ok()) {
    if (ReturnsId(resp.op)) PutVarint64(dst, resp.id);
    if (ReturnsTokens(resp.op)) {
      for (const Token& t : resp.tokens) EncodeToken(t, dst);
    }
    if (resp.op == OpCode::kXPath) {
      PutVarint64(dst, resp.ids.size());
      for (NodeId id : resp.ids) PutVarint64(dst, id);
    }
    if (ReturnsText(resp.op)) {
      dst->insert(dst->end(), resp.text.begin(), resp.text.end());
    }
  }
  SealFrame(dst, body_start);
}

Result<Request> DecodeRequest(Slice body) {
  size_t pos = 0;
  Request req;
  if (body.empty()) {
    return Status::Corruption("wire body truncated before opcode");
  }
  // The extension flags must come off before the opcode range check —
  // a flagged byte is a valid opcode plus one extension varint each.
  uint8_t raw = body[pos++];
  const bool traced = (raw & kTraceRequestFlag) != 0;
  const bool has_deadline = (raw & kDeadlineRequestFlag) != 0;
  raw &= static_cast<uint8_t>(~(kTraceRequestFlag | kDeadlineRequestFlag));
  LAXML_ASSIGN_OR_RETURN(req.op, DecodeOpCode(raw));
  LAXML_ASSIGN_OR_RETURN(req.request_id,
                         DecodeVarint(body, &pos, "request id"));
  if (traced) {
    LAXML_ASSIGN_OR_RETURN(req.trace_id,
                           DecodeVarint(body, &pos, "trace id"));
    if (req.trace_id == 0) {
      return Status::Corruption("traced request with zero trace id");
    }
  }
  if (has_deadline) {
    LAXML_ASSIGN_OR_RETURN(req.deadline_ms,
                           DecodeVarint(body, &pos, "deadline"));
    if (req.deadline_ms == kNoDeadline) {
      return Status::Corruption("deadline varint is the no-deadline value");
    }
  }
  if (HasTarget(req.op)) {
    LAXML_ASSIGN_OR_RETURN(req.target, DecodeVarint(body, &pos, "target"));
  }
  if (HasFragment(req.op)) {
    LAXML_ASSIGN_OR_RETURN(
        req.data,
        DecodeTokens(Slice(body.data() + pos, body.size() - pos)));
    pos = body.size();
  }
  if (req.op == OpCode::kXPath) {
    req.expr.assign(reinterpret_cast<const char*>(body.data()) + pos,
                    body.size() - pos);
    pos = body.size();
  }
  if (req.op == OpCode::kGetMetrics) {
    if (pos >= body.size()) {
      return Status::Corruption("wire body truncated before metrics format");
    }
    uint8_t fmt = body[pos++];
    if (fmt > static_cast<uint8_t>(MetricsFormat::kPrometheus)) {
      return Status::Corruption("unknown metrics format " +
                                std::to_string(fmt));
    }
    req.metrics_format = static_cast<MetricsFormat>(fmt);
  }
  if (req.op == OpCode::kExplain) {
    if (pos >= body.size()) {
      return Status::Corruption("wire body truncated before explain mode");
    }
    uint8_t mode = body[pos++];
    if (mode > static_cast<uint8_t>(ExplainMode::kProfile)) {
      return Status::Corruption("unknown explain mode " +
                                std::to_string(mode));
    }
    req.explain_mode = static_cast<ExplainMode>(mode);
    req.expr.assign(reinterpret_cast<const char*>(body.data()) + pos,
                    body.size() - pos);
    pos = body.size();
  }
  if (pos != body.size()) {
    return Status::Corruption("trailing bytes after request payload");
  }
  return req;
}

Result<Response> DecodeResponse(Slice body) {
  size_t pos = 0;
  Response resp;
  if (body.empty()) {
    return Status::Corruption("wire body truncated before opcode");
  }
  LAXML_ASSIGN_OR_RETURN(resp.op, DecodeOpCode(body[pos++]));
  LAXML_ASSIGN_OR_RETURN(resp.request_id,
                         DecodeVarint(body, &pos, "request id"));
  if (pos >= body.size()) {
    return Status::Corruption("wire body truncated before status code");
  }
  uint8_t code = body[pos++];
  uint64_t msg_len = 0;
  LAXML_ASSIGN_OR_RETURN(msg_len, DecodeVarint(body, &pos, "message length"));
  if (msg_len > body.size() - pos) {
    return Status::Corruption("status message length out of bounds");
  }
  std::string msg(reinterpret_cast<const char*>(body.data()) + pos,
                  msg_len);
  pos += msg_len;
  LAXML_RETURN_IF_ERROR(StatusFromWire(code, std::move(msg), &resp.status));
  if (resp.status.ok()) {
    if (ReturnsId(resp.op)) {
      LAXML_ASSIGN_OR_RETURN(resp.id, DecodeVarint(body, &pos, "node id"));
    }
    if (ReturnsTokens(resp.op)) {
      LAXML_ASSIGN_OR_RETURN(
          resp.tokens,
          DecodeTokens(Slice(body.data() + pos, body.size() - pos)));
      pos = body.size();
    }
    if (resp.op == OpCode::kXPath) {
      uint64_t count = 0;
      LAXML_ASSIGN_OR_RETURN(count, DecodeVarint(body, &pos, "id count"));
      // Each id costs at least one byte; reject fabricated counts
      // before reserving anything.
      if (count > body.size() - pos) {
        return Status::Corruption("xpath id count out of bounds");
      }
      resp.ids.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t id = 0;
        LAXML_ASSIGN_OR_RETURN(id, DecodeVarint(body, &pos, "xpath id"));
        resp.ids.push_back(id);
      }
    }
    if (ReturnsText(resp.op)) {
      resp.text.assign(reinterpret_cast<const char*>(body.data()) + pos,
                       body.size() - pos);
      pos = body.size();
    }
  }
  if (pos != body.size()) {
    return Status::Corruption("trailing bytes after response payload");
  }
  return resp;
}

Result<FrameView> TryDecodeFrame(Slice buffer, size_t max_body) {
  FrameView view;
  if (buffer.size() < kFrameHeaderSize) return view;  // incomplete
  const uint32_t body_len = ReadFixed32(buffer.data());
  if (body_len > max_body) {
    return Status::Corruption("frame body length " +
                              std::to_string(body_len) + " exceeds cap");
  }
  if (buffer.size() < kFrameHeaderSize + body_len) return view;  // incomplete
  const uint32_t expected = crc32c::Unmask(ReadFixed32(buffer.data() + 4));
  const uint32_t actual =
      crc32c::Value(buffer.data() + kFrameHeaderSize, body_len);
  if (expected != actual) {
    return Status::Corruption("frame checksum mismatch");
  }
  view.complete = true;
  view.body = Slice(buffer.data() + kFrameHeaderSize, body_len);
  view.frame_size = kFrameHeaderSize + body_len;
  return view;
}

Status StatusFromWire(uint8_t code, std::string message, Status* out) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      *out = Status::OK();
      return Status::OK();
    case StatusCode::kNotFound:
      *out = Status::NotFound(std::move(message));
      return Status::OK();
    case StatusCode::kInvalidArgument:
      *out = Status::InvalidArgument(std::move(message));
      return Status::OK();
    case StatusCode::kCorruption:
      *out = Status::Corruption(std::move(message));
      return Status::OK();
    case StatusCode::kIOError:
      *out = Status::IOError(std::move(message));
      return Status::OK();
    case StatusCode::kNotSupported:
      *out = Status::NotSupported(std::move(message));
      return Status::OK();
    case StatusCode::kAborted:
      *out = Status::Aborted(std::move(message));
      return Status::OK();
    case StatusCode::kParseError:
      *out = Status::ParseError(std::move(message));
      return Status::OK();
    case StatusCode::kResourceExhausted:
      *out = Status::ResourceExhausted(std::move(message));
      return Status::OK();
    case StatusCode::kNoSpace:
      *out = Status::NoSpace(std::move(message));
      return Status::OK();
    case StatusCode::kPoisoned:
      *out = Status::Poisoned(std::move(message));
      return Status::OK();
    case StatusCode::kDeadlineExceeded:
      *out = Status::DeadlineExceeded(std::move(message));
      return Status::OK();
    case StatusCode::kRetryLater:
      *out = Status::RetryLater(std::move(message));
      return Status::OK();
  }
  return Status::Corruption("unknown status code " + std::to_string(code));
}

}  // namespace net
}  // namespace laxml
