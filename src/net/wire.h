// The laxml wire protocol: length-prefixed, CRC32C-framed binary
// request/response messages over a byte stream (TCP). The payload
// codecs reuse the storage substrate's primitives — varints for
// integers, the binary token codec for XML fragments — so a fragment
// travels the network in exactly the form it is stored in a Range.
//
// Frame layout (little-endian fixed-width header, then the body):
//
//   [body_len u32][masked crc32c(body) u32][body bytes ...]
//
// Request body:
//
//   [opcode u8][request_id varint][opcode-specific payload]
//
// The opcode byte's high bit (kTraceRequestFlag) is a frame extension:
// when set, a trace_id varint follows request_id. Untraced requests are
// byte-identical to the pre-flag format, and an old decoder rejects a
// flagged opcode byte (value > kMaxOpCode) instead of misparsing it —
// backward compatible both ways.
//
// Response body:
//
//   [opcode u8][request_id varint][status_code u8]
//   [msg_len varint][msg bytes][opcode-specific payload]
//
// The decoder is defensive end to end: a frame whose length field
// exceeds the cap, whose CRC does not match, or whose body does not
// parse yields a Status error (never a crash) — the fuzz suite holds it
// to that. A truncated frame is reported as incomplete so stream
// readers can wait for more bytes.

#ifndef LAXML_NET_WIRE_H_
#define LAXML_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "wal/log_format.h"
#include "xml/token.h"
#include "xml/token_sequence.h"

namespace laxml {
namespace net {

/// Fixed frame header: body length + masked CRC32C of the body.
inline constexpr size_t kFrameHeaderSize = 8;

/// Default cap on a frame body. A frame claiming more is rejected as
/// Corruption before any allocation happens.
inline constexpr size_t kMaxFrameBody = 16u << 20;  // 16 MiB

/// RPC operations. Values are part of the wire format — append only.
enum class OpCode : uint8_t {
  kPing = 0,
  kInsertBefore = 1,
  kInsertAfter = 2,
  kInsertIntoFirst = 3,
  kInsertIntoLast = 4,
  kInsertTopLevel = 5,
  kDeleteNode = 6,
  kReplaceNode = 7,
  kReplaceContent = 8,
  kRead = 9,      ///< Whole-store read.
  kReadNode = 10, ///< Subtree read of one node.
  kXPath = 11,
  // 12: retired (was GET_STATS); never reuse
  kCheckIntegrity = 13,
  kGetMetrics = 14,  ///< Store + server stats exposition.
  kExplain = 15,     ///< Query plan (and optional profile) for an XPath.
};
inline constexpr uint8_t kMaxOpCode = 15;

/// Request-opcode-byte flag: a trace_id varint follows request_id.
/// High bit so flagged bytes land outside the opcode range for old
/// decoders (see the frame layout comment above).
inline constexpr uint8_t kTraceRequestFlag = 0x80;

/// Request-opcode-byte flag: a deadline varint (milliseconds of budget
/// remaining, after the trace id if both flags are set) follows. Like
/// the trace flag, a flagged byte lands outside the opcode range for
/// old decoders, so they reject rather than misparse.
inline constexpr uint8_t kDeadlineRequestFlag = 0x40;

/// Request::deadline_ms value meaning "no deadline" (no wire bytes
/// spent). An explicit 0 is legal and means already expired — the
/// server rejects it before touching the store.
inline constexpr uint64_t kNoDeadline = ~0ull;

/// Rendering formats a kGetMetrics request can ask for.
enum class MetricsFormat : uint8_t {
  kTable = 0,       ///< Human-readable aligned table.
  kPrometheus = 1,  ///< Prometheus text exposition format.
};

/// What a kExplain request asks the server to do.
enum class ExplainMode : uint8_t {
  kPlan = 0,     ///< Plan only; the query is NOT executed.
  kProfile = 1,  ///< Execute too; include resource counters + timing.
};

/// Human-readable opcode name ("INSERT_BEFORE", ...).
const char* OpCodeName(OpCode op);

/// The Table-1 operation a mutating opcode runs (nullopt for every other
/// opcode). With OpCodeOf, the one map between the wire's opcodes and
/// Store::Apply's operation codes.
std::optional<WalOp> MutationOf(OpCode op);

/// The opcode that carries Table-1 operation `op` (kPing for
/// kCheckpoint, which no request carries).
OpCode OpCodeOf(WalOp op);

/// One decoded request. Fields beyond `op`/`request_id` are meaningful
/// only for the opcodes that use them (see the encoding table in
/// wire.cc).
struct Request {
  OpCode op = OpCode::kPing;
  uint64_t request_id = 0;
  /// Client-assigned trace id; 0 = untraced (no wire bytes spent).
  uint64_t trace_id = 0;
  /// Milliseconds of deadline budget remaining when the request was
  /// encoded; kNoDeadline = none. The budget is relative (no clock
  /// sync): the server starts its countdown at decode time.
  uint64_t deadline_ms = kNoDeadline;
  NodeId target = kInvalidNodeId;  ///< Insert*/Delete/Replace*/ReadNode.
  TokenSequence data;              ///< Insert*/Replace* fragment payload.
  std::string expr;                ///< XPath / Explain expression text.
  MetricsFormat metrics_format = MetricsFormat::kTable;  ///< GetMetrics.
  ExplainMode explain_mode = ExplainMode::kPlan;         ///< Explain.
};

/// One decoded response. `status` carries the engine Status verbatim;
/// the value fields are meaningful only on OK, per opcode.
struct Response {
  OpCode op = OpCode::kPing;
  uint64_t request_id = 0;
  Status status;
  NodeId id = kInvalidNodeId;   ///< Insert*/Replace* result id.
  TokenSequence tokens;         ///< Read/ReadNode payload.
  std::vector<NodeId> ids;      ///< XPath result set.
  std::string text;             ///< GetMetrics/Explain payload.
};

/// Appends a complete frame (header + body) carrying `req` to `dst`.
void EncodeRequest(const Request& req, std::vector<uint8_t>* dst);

/// Appends a complete frame (header + body) carrying `resp` to `dst`.
void EncodeResponse(const Response& resp, std::vector<uint8_t>* dst);

/// Decodes a request body (the bytes between frame headers).
Result<Request> DecodeRequest(Slice body);

/// Decodes a response body.
Result<Response> DecodeResponse(Slice body);

/// Outcome of TryDecodeFrame on a stream prefix.
struct FrameView {
  /// False: the buffer holds only part of a frame — read more bytes.
  bool complete = false;
  /// The frame body (points into the input buffer). Valid iff complete.
  Slice body;
  /// Total bytes (header + body) consumed. Valid iff complete.
  size_t frame_size = 0;
};

/// Examines the start of `buffer` for one frame. Corruption when the
/// declared body length exceeds `max_body` or the CRC does not match;
/// an incomplete FrameView when more bytes are needed.
Result<FrameView> TryDecodeFrame(Slice buffer, size_t max_body = kMaxFrameBody);

/// Rebuilds `*out` from a Status's wire representation (code byte +
/// message). Unknown code bytes yield Corruption.
Status StatusFromWire(uint8_t code, std::string message, Status* out);

}  // namespace net
}  // namespace laxml

#endif  // LAXML_NET_WIRE_H_
