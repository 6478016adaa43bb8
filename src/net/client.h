// laxml::Client — blocking client for the laxml wire protocol.
//
// Connect() retries with a delay (so a freshly exec'd laxml_server
// wins the startup race) and applies connect and per-I/O timeouts.
// Call() is one request / one response; CallBatch() pipelines a whole
// batch — every frame is written before the first response is read —
// which amortizes the round trip over the batch (the network analogue
// of the paper's bulk insert units).
//
// Timeouts are whole-operation deadlines enforced with poll() over a
// non-blocking socket, not per-syscall SO_RCVTIMEO: a server that
// trickles one byte per timeout window cannot stall a caller forever.
// A timed-out or broken call leaves the connection unusable; the typed
// read-only wrappers (Ping/Read/XPath/GetStats/GetMetrics/
// CheckIntegrity) transparently reconnect and retry exactly once,
// because re-running a read is safe. Mutations never retry — the
// original may have been applied before the connection died.
//
// A kRetryLater response is different: the server sheds *before*
// executing, so Call() transparently retries every op (mutations too)
// with jittered exponential backoff under a bounded per-call budget
// (ClientOptions::retry_later_*); only an exhausted budget surfaces
// kRetryLater to the caller.
//
// Thread safety: none. One Client per thread; connections are cheap.

#ifndef LAXML_NET_CLIENT_H_
#define LAXML_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace laxml {
namespace net {

struct ClientOptions {
  int connect_timeout_ms = 5000;
  /// Whole-operation deadline for each send and each response read
  /// (poll-based, so it bounds the total wait even against a server
  /// that trickles bytes); 0 disables.
  int io_timeout_ms = 30000;
  /// Connection attempts before giving up (covers server startup).
  int connect_attempts = 20;
  int retry_delay_ms = 50;
  /// Retry idempotent reads once, over a fresh connection, after an
  /// I/O error or timeout. Mutations are never retried.
  bool retry_idempotent = true;
  size_t max_frame_bytes = kMaxFrameBody;
  /// An overloaded server answers kRetryLater *instead of executing*
  /// (admission control sheds before the store is touched), so any op
  /// — mutations included — may safely retry it. Call() does, with
  /// jittered exponential backoff, up to this many extra attempts per
  /// call. 0 surfaces kRetryLater to the caller immediately.
  int retry_later_attempts = 4;
  int retry_later_base_ms = 20;  ///< First backoff; doubles per attempt.
  int retry_later_max_ms = 2000; ///< Backoff ceiling.
  /// Seed for the backoff jitter; 0 derives one (tests pin it).
  uint64_t backoff_seed = 0;
  /// Decorates the connected socket (fault injection seam). Applied on
  /// every dial, including reconnects.
  SocketWrapper socket_wrapper;
};

class Client {
 public:
  /// Connects (with retries) to a laxml server.
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& host, uint16_t port, const ClientOptions& = {});

  /// Trace id stamped on every subsequent request (and on this
  /// client's own spans), so one request's client and server spans
  /// stitch into a single trace. 0 (the default) disables — untraced
  /// requests spend no wire bytes on it.
  void set_trace_id(uint64_t trace_id) { trace_id_ = trace_id; }
  uint64_t trace_id() const { return trace_id_; }

  /// Deadline budget stamped on every subsequent request that does not
  /// carry its own (wire varint; the server rejects the request with
  /// DeadlineExceeded once the budget is spent, before touching the
  /// store). 0 (the default) disables — no wire bytes spent.
  void set_deadline_ms(uint64_t deadline_ms) { deadline_ms_ = deadline_ms; }
  uint64_t deadline_ms() const { return deadline_ms_; }

  /// Sends one request and blocks for its response. The request id is
  /// assigned by the client; mismatched response ids are Corruption.
  Result<Response> Call(Request req);

  /// Pipelines `reqs` (all writes, then all reads, in order).
  Result<std::vector<Response>> CallBatch(std::vector<Request> reqs);

  /// @name Typed wrappers over Call().
  /// @{
  Status Ping();
  /// One Table-1 mutation on the server (its Store::Apply); the named
  /// forms below forward here.
  Result<NodeId> Apply(WalOp op, NodeId target, const TokenSequence& data);
  Result<NodeId> InsertBefore(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kInsertBefore, id, data);
  }
  Result<NodeId> InsertAfter(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kInsertAfter, id, data);
  }
  Result<NodeId> InsertIntoFirst(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kInsertIntoFirst, id, data);
  }
  Result<NodeId> InsertIntoLast(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kInsertIntoLast, id, data);
  }
  Result<NodeId> InsertTopLevel(const TokenSequence& data) {
    return Apply(WalOp::kInsertTopLevel, kInvalidNodeId, data);
  }
  Status DeleteNode(NodeId id) {
    return Apply(WalOp::kDeleteNode, id, {}).status();
  }
  Result<NodeId> ReplaceNode(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kReplaceNode, id, data);
  }
  Result<NodeId> ReplaceContent(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kReplaceContent, id, data);
  }
  Result<TokenSequence> Read();
  Result<TokenSequence> Read(NodeId id);
  Result<std::vector<NodeId>> XPath(std::string expr);
  /// The planner's verdict for `expr` as JSON — plan kind, per-step
  /// index warmth, eligibility gate. `profile` additionally executes
  /// the query and appends its timing + resource counters.
  Result<std::string> Explain(std::string expr, bool profile = false);
  Result<std::string> GetStats();
  /// Full metrics exposition: the store's counters/gauges/histograms
  /// plus the server's per-op latency table. `format` picks the
  /// rendering.
  Result<std::string> GetMetrics(
      MetricsFormat format = MetricsFormat::kTable);
  Status CheckIntegrity();
  /// @}

 private:
  Client(std::unique_ptr<Socket> sock, std::string host, uint16_t port,
         const ClientOptions& options);

  /// One request/response exchange, no retry policy.
  Result<Response> CallOnce(Request req);
  Status SendAll(const uint8_t* data, size_t len);
  /// Reads from the socket until one complete frame is buffered, then
  /// decodes it as a response.
  Result<Response> ReadResponse();
  /// Call() with the single-reconnect retry policy for reads.
  Result<Response> CallIdempotent(Request req);
  /// Tears down the current connection and dials `host_:port_` again
  /// (one attempt, after `retry_delay_ms`). Drops any buffered bytes.
  Status Reconnect();
  /// Shorthand: run `req`, propagate errors, return the new node id.
  Result<NodeId> CallForId(Request req);
  /// Sleeps the jittered exponential backoff for retry attempt `attempt`.
  void BackoffSleep(int attempt);

  ClientOptions options_;
  std::string host_;
  uint16_t port_ = 0;
  std::unique_ptr<Socket> sock_;
  uint64_t next_request_id_ = 1;
  uint64_t trace_id_ = 0;
  uint64_t deadline_ms_ = 0;
  uint64_t jitter_state_ = 1;
  std::vector<uint8_t> rbuf_;
  size_t rpos_ = 0;
};

}  // namespace net
}  // namespace laxml

#endif  // LAXML_NET_CLIENT_H_
