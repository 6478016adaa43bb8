// Unit tests for the network wire protocol (net/wire.h): request and
// response codecs round-trip every opcode, the frame layer detects
// truncation, oversize claims, and corruption, and hand-crafted
// malformed bodies come back as Status errors with no crash.

#include <gtest/gtest.h>

#include "common/varint.h"
#include "net/wire.h"
#include "test_util.h"

namespace laxml {
namespace net {
namespace {

// Opcode 12 was GET_STATS; it stays retired, so no loop over the
// opcodes below encodes it.
constexpr uint8_t kRetiredOpCode = 12;

TokenSequence SampleFragment() {
  return testing::MustFragment("<a x=\"1\"><b>text</b></a>");
}

// Encodes `req` as a frame and decodes it back through the full
// TryDecodeFrame + DecodeRequest path.
Request MustRoundTrip(const Request& req) {
  std::vector<uint8_t> wire;
  EncodeRequest(req, &wire);
  auto frame = TryDecodeFrame(Slice(wire));
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(frame->complete);
  EXPECT_EQ(frame->frame_size, wire.size());
  auto decoded = DecodeRequest(frame->body);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? *decoded : Request{};
}

Response MustRoundTrip(const Response& resp) {
  std::vector<uint8_t> wire;
  EncodeResponse(resp, &wire);
  auto frame = TryDecodeFrame(Slice(wire));
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(frame->complete);
  auto decoded = DecodeResponse(frame->body);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? *decoded : Response{};
}

TEST(WireFormatTest, RequestRoundTripEveryOpcode) {
  TokenSequence frag = SampleFragment();
  for (uint8_t raw = 0; raw <= kMaxOpCode; ++raw) {
    if (raw == kRetiredOpCode) continue;
    Request req;
    req.op = static_cast<OpCode>(raw);
    req.request_id = 1000 + raw;
    req.target = 42;
    req.data = frag;
    req.expr = "/a/b";
    Request back = MustRoundTrip(req);
    EXPECT_EQ(back.op, req.op) << OpCodeName(req.op);
    EXPECT_EQ(back.request_id, req.request_id) << OpCodeName(req.op);
    // Field presence is opcode-driven; compare only what the opcode
    // carries (the rest decodes to defaults).
    switch (req.op) {
      case OpCode::kInsertBefore:
      case OpCode::kInsertAfter:
      case OpCode::kInsertIntoFirst:
      case OpCode::kInsertIntoLast:
      case OpCode::kReplaceNode:
      case OpCode::kReplaceContent:
        EXPECT_EQ(back.target, req.target) << OpCodeName(req.op);
        EXPECT_EQ(back.data, req.data) << OpCodeName(req.op);
        break;
      case OpCode::kDeleteNode:
      case OpCode::kReadNode:
        EXPECT_EQ(back.target, req.target) << OpCodeName(req.op);
        break;
      case OpCode::kInsertTopLevel:
        EXPECT_EQ(back.data, req.data) << OpCodeName(req.op);
        break;
      case OpCode::kXPath:
        EXPECT_EQ(back.expr, req.expr);
        break;
      default:
        break;
    }
  }
}

TEST(WireFormatTest, GetMetricsCarriesFormatAndText) {
  for (MetricsFormat fmt :
       {MetricsFormat::kTable, MetricsFormat::kPrometheus}) {
    Request req;
    req.op = OpCode::kGetMetrics;
    req.request_id = 21;
    req.metrics_format = fmt;
    Request back = MustRoundTrip(req);
    EXPECT_EQ(back.metrics_format, fmt);
  }
  Response resp;
  resp.op = OpCode::kGetMetrics;
  resp.request_id = 22;
  resp.text = "laxml_server_requests_total 5\n";
  Response back = MustRoundTrip(resp);
  EXPECT_EQ(back.text, resp.text);

  // A GetMetrics request with an unknown format byte is Corruption,
  // and one missing the byte entirely is too.
  std::vector<uint8_t> body = {static_cast<uint8_t>(OpCode::kGetMetrics),
                               0, 9};
  EXPECT_TRUE(DecodeRequest(Slice(body)).status().IsCorruption());
  std::vector<uint8_t> short_body = {
      static_cast<uint8_t>(OpCode::kGetMetrics), 0};
  EXPECT_TRUE(DecodeRequest(Slice(short_body)).status().IsCorruption());
}

TEST(WireFormatTest, TraceIdTravelsViaOpcodeFlag) {
  // trace_id == 0 (the default) encodes byte-identically to the
  // pre-trace wire format: no flag bit, no extra varint.
  Request plain;
  plain.op = OpCode::kXPath;
  plain.request_id = 5;
  plain.expr = "//a";
  std::vector<uint8_t> plain_wire;
  EncodeRequest(plain, &plain_wire);
  {
    auto frame = TryDecodeFrame(Slice(plain_wire));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->body[0] & kTraceRequestFlag, 0);
  }
  EXPECT_EQ(MustRoundTrip(plain).trace_id, 0u);

  // A nonzero trace id sets the flag bit and round-trips, for every
  // opcode.
  for (uint8_t raw = 0; raw <= kMaxOpCode; ++raw) {
    if (raw == kRetiredOpCode) continue;
    Request req;
    req.op = static_cast<OpCode>(raw);
    req.request_id = 6;
    req.trace_id = 0xDEADBEEFull + raw;
    req.expr = "//a";
    req.data = SampleFragment();
    std::vector<uint8_t> wire;
    EncodeRequest(req, &wire);
    auto frame = TryDecodeFrame(Slice(wire));
    ASSERT_TRUE(frame.ok());
    EXPECT_NE(frame->body[0] & kTraceRequestFlag, 0) << OpCodeName(req.op);
    Request back = MustRoundTrip(req);
    EXPECT_EQ(back.op, req.op);
    EXPECT_EQ(back.trace_id, req.trace_id) << OpCodeName(req.op);
  }
}

TEST(WireFormatTest, TracedRequestMalformedVariants) {
  {
    // Flag set but no trace id varint after the request id.
    std::vector<uint8_t> body = {
        static_cast<uint8_t>(static_cast<uint8_t>(OpCode::kPing) |
                             kTraceRequestFlag),
        1};
    EXPECT_TRUE(DecodeRequest(Slice(body)).status().IsCorruption());
  }
  {
    // Flag set with an explicit zero trace id: the encoder never emits
    // this (zero means "untraced, no varint"), so it is Corruption.
    std::vector<uint8_t> body = {
        static_cast<uint8_t>(static_cast<uint8_t>(OpCode::kPing) |
                             kTraceRequestFlag),
        1, 0};
    EXPECT_TRUE(DecodeRequest(Slice(body)).status().IsCorruption());
  }
  {
    // Flag on an out-of-range base opcode still rejects.
    std::vector<uint8_t> body = {
        static_cast<uint8_t>((kMaxOpCode + 1) | kTraceRequestFlag), 1, 9};
    EXPECT_TRUE(DecodeRequest(Slice(body)).status().IsCorruption());
  }
}

TEST(WireFormatTest, DeadlineTravelsViaOpcodeFlag) {
  // kNoDeadline (the default) encodes byte-identically to the
  // pre-deadline format: no flag bit, no extra varint.
  Request plain;
  plain.op = OpCode::kPing;
  plain.request_id = 8;
  std::vector<uint8_t> plain_wire;
  EncodeRequest(plain, &plain_wire);
  {
    auto frame = TryDecodeFrame(Slice(plain_wire));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->body[0] & kDeadlineRequestFlag, 0);
  }
  EXPECT_EQ(MustRoundTrip(plain).deadline_ms, kNoDeadline);

  // Any explicit budget — zero ("already expired") included — sets the
  // flag and round-trips, for every opcode, composed with tracing.
  for (uint8_t raw = 0; raw <= kMaxOpCode; ++raw) {
    if (raw == kRetiredOpCode) continue;
    for (uint64_t budget : {0ull, 1ull, 250ull, 86'400'000ull}) {
      Request req;
      req.op = static_cast<OpCode>(raw);
      req.request_id = 9;
      req.trace_id = raw % 2 == 0 ? 0 : 0xABCDull;
      req.deadline_ms = budget;
      req.expr = "//a";
      req.data = SampleFragment();
      std::vector<uint8_t> wire;
      EncodeRequest(req, &wire);
      auto frame = TryDecodeFrame(Slice(wire));
      ASSERT_TRUE(frame.ok());
      EXPECT_NE(frame->body[0] & kDeadlineRequestFlag, 0)
          << OpCodeName(req.op);
      Request back = MustRoundTrip(req);
      EXPECT_EQ(back.deadline_ms, budget) << OpCodeName(req.op);
      EXPECT_EQ(back.trace_id, req.trace_id) << OpCodeName(req.op);
    }
  }
}

TEST(WireFormatTest, DeadlineRequestMalformedVariants) {
  {
    // Flag set but no deadline varint after the request id.
    std::vector<uint8_t> body = {
        static_cast<uint8_t>(static_cast<uint8_t>(OpCode::kPing) |
                             kDeadlineRequestFlag),
        1};
    EXPECT_TRUE(DecodeRequest(Slice(body)).status().IsCorruption());
  }
  {
    // The kNoDeadline sentinel spelled out as a varint: the encoder
    // never emits it (no deadline means no flag), so it is Corruption.
    std::vector<uint8_t> body = {
        static_cast<uint8_t>(static_cast<uint8_t>(OpCode::kPing) |
                             kDeadlineRequestFlag),
        1};
    PutVarint64(&body, kNoDeadline);
    EXPECT_TRUE(DecodeRequest(Slice(body)).status().IsCorruption());
  }
  {
    // Both extension flags: trace id comes first, deadline second;
    // dropping the second varint must be caught.
    std::vector<uint8_t> body = {
        static_cast<uint8_t>(static_cast<uint8_t>(OpCode::kPing) |
                             kTraceRequestFlag | kDeadlineRequestFlag),
        1, 9};
    EXPECT_TRUE(DecodeRequest(Slice(body)).status().IsCorruption());
  }
}

TEST(WireFormatTest, ExplainCarriesModeAndExpr) {
  for (ExplainMode mode : {ExplainMode::kPlan, ExplainMode::kProfile}) {
    Request req;
    req.op = OpCode::kExplain;
    req.request_id = 31;
    req.explain_mode = mode;
    req.expr = "//a//b";
    Request back = MustRoundTrip(req);
    EXPECT_EQ(back.op, OpCode::kExplain);
    EXPECT_EQ(back.explain_mode, mode);
    EXPECT_EQ(back.expr, req.expr);
  }
  // The response reuses the text field (JSON payload).
  Response resp;
  resp.op = OpCode::kExplain;
  resp.request_id = 32;
  resp.text = "{\"plan\":\"stream-scan\"}";
  Response back = MustRoundTrip(resp);
  EXPECT_EQ(back.text, resp.text);

  {
    // Unknown mode byte is Corruption.
    std::vector<uint8_t> body = {static_cast<uint8_t>(OpCode::kExplain), 1,
                                 9, '/', '/', 'a'};
    EXPECT_TRUE(DecodeRequest(Slice(body)).status().IsCorruption());
  }
  {
    // Missing mode byte entirely.
    std::vector<uint8_t> body = {static_cast<uint8_t>(OpCode::kExplain), 1};
    EXPECT_TRUE(DecodeRequest(Slice(body)).status().IsCorruption());
  }
}

TEST(WireFormatTest, ResponseRoundTripValueFields) {
  {
    Response resp;
    resp.op = OpCode::kInsertTopLevel;
    resp.request_id = 7;
    resp.id = 99;
    Response back = MustRoundTrip(resp);
    EXPECT_TRUE(back.status.ok());
    EXPECT_EQ(back.id, 99u);
  }
  {
    Response resp;
    resp.op = OpCode::kReadNode;
    resp.request_id = 8;
    resp.tokens = SampleFragment();
    Response back = MustRoundTrip(resp);
    EXPECT_EQ(back.tokens, resp.tokens);
  }
  {
    Response resp;
    resp.op = OpCode::kXPath;
    resp.request_id = 9;
    resp.ids = {1, 2, 3, 500, 70000};
    Response back = MustRoundTrip(resp);
    EXPECT_EQ(back.ids, resp.ids);
  }
  {
    Response resp;
    resp.op = OpCode::kGetMetrics;
    resp.request_id = 10;
    resp.text = "ranges: 5\ntokens: 17\n";
    Response back = MustRoundTrip(resp);
    EXPECT_EQ(back.text, resp.text);
  }
}

TEST(WireFormatTest, RetiredOpcodeIsUnknownBothWays) {
  // Each body is well formed but for its opcode byte: a bare request
  // (request id 1), a traced one (the flag comes off before the one
  // opcode check; trace id 7) and an OK response with no message.
  const std::vector<uint8_t> requests[] = {
      {kRetiredOpCode, 1},
      {static_cast<uint8_t>(kRetiredOpCode | kTraceRequestFlag), 1, 7}};
  for (const std::vector<uint8_t>& body : requests) {
    Status st = DecodeRequest(Slice(body)).status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.message().find("unknown opcode"), std::string::npos);
  }
  const std::vector<uint8_t> response = {kRetiredOpCode, 1, 0, 0};
  Status st = DecodeResponse(Slice(response)).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("unknown opcode"), std::string::npos);
}

TEST(WireFormatTest, ErrorResponseCarriesStatusAndSuppressesPayload) {
  Response resp;
  resp.op = OpCode::kInsertTopLevel;
  resp.request_id = 11;
  resp.status = Status::NotFound("no such node");
  resp.id = 1234;  // must NOT travel: error responses have no payload
  Response back = MustRoundTrip(resp);
  EXPECT_TRUE(back.status.IsNotFound());
  EXPECT_EQ(back.status.message(), "no such node");
  EXPECT_EQ(back.id, kInvalidNodeId);
}

TEST(WireFormatTest, StatusFromWireCoversEveryCode) {
  for (uint8_t code = 0; code < kStatusCodeCount; ++code) {
    Status out;
    ASSERT_LAXML_OK(StatusFromWire(code, "m", &out));
    EXPECT_EQ(static_cast<uint8_t>(out.code()), code);
  }
  Status out;
  EXPECT_TRUE(StatusFromWire(kStatusCodeCount, "m", &out).IsCorruption());
  EXPECT_TRUE(StatusFromWire(255, "m", &out).IsCorruption());
}

TEST(WireFormatTest, IncompleteFramesAskForMoreBytes) {
  Request req;
  req.op = OpCode::kXPath;
  req.expr = "/a";
  std::vector<uint8_t> wire;
  EncodeRequest(req, &wire);
  // Every strict prefix is incomplete, never an error: the stream
  // reader must keep the bytes and wait.
  for (size_t len = 0; len < wire.size(); ++len) {
    auto frame = TryDecodeFrame(Slice(wire.data(), len));
    ASSERT_TRUE(frame.ok()) << "prefix " << len;
    EXPECT_FALSE(frame->complete) << "prefix " << len;
  }
  auto full = TryDecodeFrame(Slice(wire));
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->complete);
}

TEST(WireFormatTest, OversizedLengthRejectedBeforeBuffering) {
  // Header claiming a body one byte past the cap: Corruption even
  // though no body bytes are present (nothing gets allocated).
  std::vector<uint8_t> wire(kFrameHeaderSize, 0);
  const uint32_t huge = kMaxFrameBody + 1;
  wire[0] = static_cast<uint8_t>(huge);
  wire[1] = static_cast<uint8_t>(huge >> 8);
  wire[2] = static_cast<uint8_t>(huge >> 16);
  wire[3] = static_cast<uint8_t>(huge >> 24);
  auto frame = TryDecodeFrame(Slice(wire));
  EXPECT_TRUE(frame.status().IsCorruption());
  // A tighter per-connection cap applies the same way.
  auto tight = TryDecodeFrame(Slice(wire), /*max_body=*/1024);
  EXPECT_TRUE(tight.status().IsCorruption());
}

TEST(WireFormatTest, EveryBitFlipIsDetected) {
  Request req;
  req.op = OpCode::kInsertIntoLast;
  req.target = 5;
  req.data = SampleFragment();
  std::vector<uint8_t> wire;
  EncodeRequest(req, &wire);
  // Flip each bit of the CRC and of the body: the frame must never
  // decode to a different request without noticing.
  for (size_t byte = 4; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = wire;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      auto frame = TryDecodeFrame(Slice(mutated));
      EXPECT_TRUE(!frame.ok() && frame.status().IsCorruption())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(WireFormatTest, BackToBackFramesPeelInOrder) {
  std::vector<uint8_t> wire;
  for (uint64_t i = 0; i < 5; ++i) {
    Request req;
    req.op = OpCode::kPing;
    req.request_id = i;
    EncodeRequest(req, &wire);
  }
  size_t pos = 0;
  for (uint64_t i = 0; i < 5; ++i) {
    auto frame = TryDecodeFrame(Slice(wire.data() + pos, wire.size() - pos));
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(frame->complete);
    ASSERT_OK_AND_ASSIGN(Request req, DecodeRequest(frame->body));
    EXPECT_EQ(req.request_id, i);
    pos += frame->frame_size;
  }
  EXPECT_EQ(pos, wire.size());
}

TEST(WireFormatTest, MalformedBodiesYieldCorruption) {
  {
    // Empty body: no opcode.
    auto req = DecodeRequest(Slice());
    EXPECT_TRUE(req.status().IsCorruption());
  }
  {
    // Unknown opcode byte.
    std::vector<uint8_t> body = {kMaxOpCode + 1, 0};
    auto req = DecodeRequest(Slice(body));
    EXPECT_TRUE(req.status().IsCorruption());
  }
  {
    // Opcode present, request id varint missing.
    std::vector<uint8_t> body = {static_cast<uint8_t>(OpCode::kPing)};
    auto req = DecodeRequest(Slice(body));
    EXPECT_TRUE(req.status().IsCorruption());
  }
  {
    // Ping with trailing garbage: the codec is exact, not permissive.
    std::vector<uint8_t> body = {static_cast<uint8_t>(OpCode::kPing), 1,
                                 0xAB};
    auto req = DecodeRequest(Slice(body));
    EXPECT_TRUE(req.status().IsCorruption());
  }
  {
    // Response whose status message length points past the body.
    std::vector<uint8_t> body;
    body.push_back(static_cast<uint8_t>(OpCode::kPing));
    PutVarint64(&body, 1);  // request id
    body.push_back(0);      // kOk
    PutVarint64(&body, 1000);  // msg_len, but no bytes follow
    auto resp = DecodeResponse(Slice(body));
    EXPECT_TRUE(resp.status().IsCorruption());
  }
  {
    // XPath response claiming more ids than the body could hold.
    std::vector<uint8_t> body;
    body.push_back(static_cast<uint8_t>(OpCode::kXPath));
    PutVarint64(&body, 1);  // request id
    body.push_back(0);      // kOk
    PutVarint64(&body, 0);  // empty message
    PutVarint64(&body, 1u << 30);  // fabricated id count
    auto resp = DecodeResponse(Slice(body));
    EXPECT_TRUE(resp.status().IsCorruption());
  }
}

}  // namespace
}  // namespace net
}  // namespace laxml
