#include "net/client.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/request_context.h"
#include "obs/trace.h"

namespace laxml {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

// Deadline for one whole client operation (one send or one response
// read). io_timeout_ms == 0 means "no deadline".
Clock::time_point OpDeadline(int io_timeout_ms) {
  if (io_timeout_ms <= 0) return Clock::time_point::max();
  return Clock::now() + std::chrono::milliseconds(io_timeout_ms);
}

// Waits for `events` on `fd` until `deadline`. OK when the fd is
// ready; Aborted when the deadline passes first. The deadline is
// re-derived on every call, so a server that dribbles one byte per
// poll window still cannot extend the operation past it.
Status PollUntil(int fd, short events, Clock::time_point deadline,
                 const char* what) {
  while (true) {
    int timeout_ms = -1;
    if (deadline != Clock::time_point::max()) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        return Status::Aborted(std::string(what) + " timed out");
      }
      timeout_ms = static_cast<int>(left.count());
    }
    pollfd pfd{fd, events, 0};
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::Aborted(std::string(what) + " timed out");
    if (errno == EINTR) continue;
    return Status::IOError(std::string("poll(") + what +
                           "): " + std::strerror(errno));
  }
}

// Dials the server once, flips the socket non-blocking so the
// client's poll deadlines, not kernel socket timeouts, govern I/O,
// and applies the decoration hook.
Result<std::unique_ptr<Socket>> Dial(const std::string& host, uint16_t port,
                                     const ClientOptions& options) {
  LAXML_ASSIGN_OR_RETURN(
      UniqueFd fd,
      ConnectTcp(host, port, options.connect_timeout_ms, /*io_timeout_ms=*/0));
  LAXML_RETURN_IF_ERROR(SetNonBlocking(fd.get(), true));
  return WrapSocket(std::move(fd), options.socket_wrapper);
}

}  // namespace

Client::Client(std::unique_ptr<Socket> sock, std::string host, uint16_t port,
               const ClientOptions& options)
    : options_(options),
      host_(std::move(host)),
      port_(port),
      sock_(std::move(sock)) {
  jitter_state_ = options_.backoff_seed;
  if (jitter_state_ == 0) {
    jitter_state_ =
        static_cast<uint64_t>(Clock::now().time_since_epoch().count()) ^
        reinterpret_cast<uintptr_t>(this);
  }
  if (jitter_state_ == 0) jitter_state_ = 1;
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                const ClientOptions& options) {
  Status last = Status::IOError("no connection attempt made");
  int attempts = options.connect_attempts < 1 ? 1 : options.connect_attempts;
  for (int i = 0; i < attempts; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.retry_delay_ms));
    }
    auto sock = Dial(host, port, options);
    if (sock.ok()) {
      return std::unique_ptr<Client>(
          new Client(std::move(sock).value(), host, port, options));
    }
    last = sock.status();
  }
  return last;
}

Status Client::Reconnect() {
  sock_.reset();
  rbuf_.clear();
  rpos_ = 0;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(options_.retry_delay_ms));
  LAXML_ASSIGN_OR_RETURN(sock_, Dial(host_, port_, options_));
  return Status::OK();
}

Status Client::SendAll(const uint8_t* data, size_t len) {
  const Clock::time_point deadline = OpDeadline(options_.io_timeout_ms);
  size_t off = 0;
  while (off < len) {
    int err = 0;
    ssize_t n = sock_->Write(data + off, len - off, &err);
    if (n < 0) {
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) {
        LAXML_RETURN_IF_ERROR(
            PollUntil(sock_->fd(), POLLOUT, deadline, "send"));
        continue;
      }
      return Status::IOError(std::string("send: ") + std::strerror(err));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<Response> Client::ReadResponse() {
  const Clock::time_point deadline = OpDeadline(options_.io_timeout_ms);
  uint8_t tmp[16384];
  while (true) {
    Slice rest(rbuf_.data() + rpos_, rbuf_.size() - rpos_);
    LAXML_ASSIGN_OR_RETURN(FrameView frame, TryDecodeFrame(rest));
    if (frame.complete) {
      auto resp = DecodeResponse(frame.body);
      rpos_ += frame.frame_size;
      if (rpos_ >= rbuf_.size()) {
        rbuf_.clear();
        rpos_ = 0;
      }
      return resp;
    }
    int err = 0;
    ssize_t n = sock_->Read(tmp, sizeof(tmp), &err);
    if (n > 0) {
      rbuf_.insert(rbuf_.end(), tmp, tmp + n);
      continue;
    }
    if (n == 0) {
      return Status::IOError("server closed the connection");
    }
    if (err == EINTR) continue;
    if (err == EAGAIN || err == EWOULDBLOCK) {
      LAXML_RETURN_IF_ERROR(
          PollUntil(sock_->fd(), POLLIN, deadline, "receive"));
      continue;
    }
    return Status::IOError(std::string("recv: ") + std::strerror(err));
  }
}

Result<Response> Client::CallIdempotent(Request req) {
  Request copy = req;  // Call() consumes the request; keep the retry's.
  auto resp = Call(std::move(req));
  if (resp.ok() || !options_.retry_idempotent) return resp;
  const Status& st = resp.status();
  // Only transport-level failures are retryable: a timed-out or broken
  // connection says nothing about the request itself. Server-side
  // verdicts (NotFound, InvalidArgument, Poisoned, ...) arrive in a
  // decoded response and must not be retried into a second answer.
  if (!st.IsIOError() && !st.IsAborted()) return resp;
  if (!Reconnect().ok()) return resp;  // surface the original failure
  return Call(std::move(copy));
}

Result<Response> Client::CallOnce(Request req) {
  req.request_id = next_request_id_++;
  req.trace_id = trace_id_;
  if (deadline_ms_ != 0 && req.deadline_ms == kNoDeadline) {
    req.deadline_ms = deadline_ms_;
  }
  // The client's own span carries the same trace id as the server's,
  // so merged dumps show the round trip around the server's execute.
  obs::RequestContext rc;
  rc.trace_id = trace_id_;
  obs::ScopedRequestContext scoped_rc(&rc);
  LAXML_TRACE_SPAN("CLIENT_CALL");
  std::vector<uint8_t> frame;
  EncodeRequest(req, &frame);
  LAXML_RETURN_IF_ERROR(SendAll(frame.data(), frame.size()));
  LAXML_ASSIGN_OR_RETURN(Response resp, ReadResponse());
  if (resp.request_id != req.request_id || resp.op != req.op) {
    return Status::Corruption("response does not match request");
  }
  return resp;
}

void Client::BackoffSleep(int attempt) {
  uint64_t cap = static_cast<uint64_t>(
      options_.retry_later_base_ms > 0 ? options_.retry_later_base_ms : 1);
  cap <<= attempt > 20 ? 20 : attempt;
  const uint64_t max_ms = static_cast<uint64_t>(
      options_.retry_later_max_ms > 0 ? options_.retry_later_max_ms : 1);
  if (cap > max_ms) cap = max_ms;
  // Equal jitter: half deterministic, half uniform — retries from a
  // fleet that was shed together spread out instead of re-stampeding.
  uint64_t x = jitter_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  jitter_state_ = x;
  const uint64_t sleep_ms = cap / 2 + x % (cap / 2 + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

Result<Response> Client::Call(Request req) {
  for (int attempt = 0;; ++attempt) {
    Request copy = req;  // CallOnce consumes; keep the retry's.
    auto resp = CallOnce(std::move(copy));
    // kRetryLater is the one server verdict that guarantees the op was
    // NOT executed (admission control sheds before the store is
    // touched), so retrying is safe for every opcode.
    if (!resp.ok() || !resp->status.IsRetryLater() ||
        attempt >= options_.retry_later_attempts) {
      return resp;
    }
    BackoffSleep(attempt);
  }
}

Result<std::vector<Response>> Client::CallBatch(std::vector<Request> reqs) {
  obs::RequestContext rc;
  rc.trace_id = trace_id_;
  obs::ScopedRequestContext scoped_rc(&rc);
  LAXML_TRACE_SPAN("CLIENT_BATCH");
  std::vector<uint8_t> frames;
  for (Request& req : reqs) {
    req.request_id = next_request_id_++;
    req.trace_id = trace_id_;
    if (deadline_ms_ != 0 && req.deadline_ms == kNoDeadline) {
      req.deadline_ms = deadline_ms_;
    }
    EncodeRequest(req, &frames);
  }
  LAXML_RETURN_IF_ERROR(SendAll(frames.data(), frames.size()));
  // The server executes one connection's requests serially and in
  // order, so responses come back in request order.
  std::vector<Response> out;
  out.reserve(reqs.size());
  for (const Request& req : reqs) {
    LAXML_ASSIGN_OR_RETURN(Response resp, ReadResponse());
    if (resp.request_id != req.request_id || resp.op != req.op) {
      return Status::Corruption("batch response out of order");
    }
    out.push_back(std::move(resp));
  }
  return out;
}

Result<NodeId> Client::CallForId(Request req) {
  LAXML_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  LAXML_RETURN_IF_ERROR(resp.status);
  return resp.id;
}

Status Client::Ping() {
  Request req;
  req.op = OpCode::kPing;
  auto resp = CallIdempotent(std::move(req));
  if (!resp.ok()) return resp.status();
  return resp->status;
}

Result<NodeId> Client::Apply(WalOp op, NodeId target,
                             const TokenSequence& data) {
  if (op >= WalOp::kCheckpoint) {
    return Status::InvalidArgument(std::string(WalOpName(op)) +
                                   " is not a Table-1 operation");
  }
  Request req;
  req.op = OpCodeOf(op);
  req.target = target;
  req.data = data;
  return CallForId(std::move(req));
}

Result<TokenSequence> Client::Read() {
  Request req;
  req.op = OpCode::kRead;
  LAXML_ASSIGN_OR_RETURN(Response resp, CallIdempotent(std::move(req)));
  LAXML_RETURN_IF_ERROR(resp.status);
  return std::move(resp.tokens);
}

Result<TokenSequence> Client::Read(NodeId id) {
  Request req;
  req.op = OpCode::kReadNode;
  req.target = id;
  LAXML_ASSIGN_OR_RETURN(Response resp, CallIdempotent(std::move(req)));
  LAXML_RETURN_IF_ERROR(resp.status);
  return std::move(resp.tokens);
}

Result<std::vector<NodeId>> Client::XPath(std::string expr) {
  Request req;
  req.op = OpCode::kXPath;
  req.expr = std::move(expr);
  LAXML_ASSIGN_OR_RETURN(Response resp, CallIdempotent(std::move(req)));
  LAXML_RETURN_IF_ERROR(resp.status);
  return std::move(resp.ids);
}

Result<std::string> Client::Explain(std::string expr, bool profile) {
  Request req;
  req.op = OpCode::kExplain;
  req.explain_mode =
      profile ? ExplainMode::kProfile : ExplainMode::kPlan;
  req.expr = std::move(expr);
  // Read-only even in profile mode, so the idempotent retry is safe.
  LAXML_ASSIGN_OR_RETURN(Response resp, CallIdempotent(std::move(req)));
  LAXML_RETURN_IF_ERROR(resp.status);
  return std::move(resp.text);
}

Result<std::string> Client::GetMetrics(MetricsFormat format) {
  Request req;
  req.op = OpCode::kGetMetrics;
  req.metrics_format = format;
  LAXML_ASSIGN_OR_RETURN(Response resp, CallIdempotent(std::move(req)));
  LAXML_RETURN_IF_ERROR(resp.status);
  return std::move(resp.text);
}

Status Client::CheckIntegrity() {
  Request req;
  req.op = OpCode::kCheckIntegrity;
  auto resp = CallIdempotent(std::move(req));
  if (!resp.ok()) return resp.status();
  return resp->status;
}

}  // namespace net
}  // namespace laxml
