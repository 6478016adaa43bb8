#include "server/server.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>

#include "common/logging.h"
#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "query/explain.h"
#include "query/xpath_eval.h"
#include "query/xpath_parser.h"
#include "query/xpath_stream.h"

namespace laxml {

using obs::NowMicros;

namespace {

// Backpressure caps: a connection at either stops being read until it
// drains below them.
constexpr size_t kMaxInflightPerConn = 128;
constexpr size_t kMaxWriteBufferBytes = 8u << 20;

}  // namespace

Server::Server(std::unique_ptr<Store> store, const ServerOptions& options)
    : options_(options), store_(std::move(store)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
}

Result<std::unique_ptr<Server>> Server::Start(std::unique_ptr<Store> store,
                                              const ServerOptions& options) {
  auto server =
      std::unique_ptr<Server>(new Server(std::move(store), options));
  LAXML_RETURN_IF_ERROR(server->Init());
  return server;
}

Server::~Server() { Shutdown(); }

Status Server::Init() {
  if (!options_.slow_log_path.empty()) {
    LAXML_RETURN_IF_ERROR(slow_log_.Open(options_.slow_log_path));
  }
  LAXML_RETURN_IF_ERROR(poller_.Init());
  LAXML_ASSIGN_OR_RETURN(listen_fd_,
                         net::ListenTcp(options_.host, options_.port));
  LAXML_ASSIGN_OR_RETURN(port_, net::LocalPort(listen_fd_.get()));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::OK();
}

void Server::Shutdown() {
  std::call_once(shutdown_once_, [this] { DoShutdown(); });
}

void Server::CollectMetrics(obs::Snapshot* snap) {
  obs::CollectSharedStoreMetrics(store_, snap);
  stats().CollectMetrics(snap);
  obs::CollectTraceMetrics(snap);
}

void Server::DoShutdown() {
  draining_.store(true, std::memory_order_release);
  poller_.Wake();
  if (io_thread_.joinable()) io_thread_.join();
  {
    MutexLock lk(queue_mu_);
    stop_workers_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  MutexLock lk(conns_mu_);
  conns_.clear();
  listen_fd_.Reset();
}

void Server::IoLoop() {
  // I/O-thread-private index: socket fd -> connection id.
  std::unordered_map<int, uint64_t> fd_index;
  uint64_t drain_deadline_micros = 0;

  while (true) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && drain_deadline_micros == 0) {
      drain_deadline_micros =
          NowMicros() +
          static_cast<uint64_t>(options_.drain_flush_timeout_ms) * 1000;
      if (listen_fd_.valid()) {
        poller_.Unwatch(listen_fd_.get());
        listen_fd_.Reset();
      }
    }

    // Interest pass: reap stalled/idle connections, prune finished
    // ones, recompute poll masks.
    bool any_inflight = false;
    bool have_conns = false;
    const uint64_t now = NowMicros();
    {
      MutexLock lk(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        Connection* c = it->second.get();
        const bool wbuf_empty = c->woff >= c->wbuf.size();
        // Write-stall reap: responses are buffered but the peer has
        // not accepted a byte for write_timeout_ms — a stalled reader
        // holds buffer memory, never a worker.
        if (!c->dead && options_.write_timeout_ms > 0 && !wbuf_empty &&
            c->last_write_progress_micros != 0 &&
            now > c->last_write_progress_micros +
                      static_cast<uint64_t>(options_.write_timeout_ms) *
                          1000) {
          c->dead = true;
          stats_.AddReaped();
          stats_.AddDropped();
        }
        // Idle reap (slowloris guard): nothing in flight, nothing
        // buffered, no read activity for idle_timeout_s.
        if (!c->dead && options_.idle_timeout_s > 0 && c->inflight == 0 &&
            wbuf_empty && !c->peer_closed &&
            now > c->last_activity_micros +
                      static_cast<uint64_t>(options_.idle_timeout_s) *
                          1000000) {
          c->dead = true;
          stats_.AddReaped();
          stats_.AddDropped();
        }
        bool done = c->dead && c->inflight == 0;
        if (c->peer_closed && c->inflight == 0 && wbuf_empty) done = true;
        if (draining && c->inflight == 0 &&
            (wbuf_empty || now > drain_deadline_micros)) {
          done = true;
        }
        if (done) {
          poller_.Unwatch(c->sock->fd());
          fd_index.erase(c->sock->fd());
          it = conns_.erase(it);
          continue;
        }
        if (c->inflight > 0) any_inflight = true;
        have_conns = true;
        const bool paused =
            c->inflight >= kMaxInflightPerConn ||
            (c->wbuf.size() - c->woff) > kMaxWriteBufferBytes;
        const bool want_read =
            !draining && !c->peer_closed && !c->dead && !paused;
        const bool want_write = !c->dead && !wbuf_empty;
        poller_.Watch(c->sock->fd(), want_read, want_write);
        ++it;
      }
      if (draining) {
        bool queue_empty;
        {
          MutexLock qk(queue_mu_);
          queue_empty = runnable_.empty();
        }
        if (queue_empty && !any_inflight && conns_.empty()) break;
      }
    }
    // Hard drain deadline: past it, stop waiting on stragglers — the
    // workers drain what is queued and DoShutdown closes the rest.
    if (draining && now > drain_deadline_micros) break;
    if (!draining) poller_.Watch(listen_fd_.get(), true, false);

    // Reap timers need a periodic tick; otherwise sleep until traffic.
    int poll_ms = draining ? 50 : -1;
    if (poll_ms < 0 && have_conns &&
        (options_.write_timeout_ms > 0 || options_.idle_timeout_s > 0)) {
      poll_ms = 100;
    }
    auto events = poller_.Wait(poll_ms);
    if (!events.ok()) break;  // poll itself failed; bail out

    for (const net::Poller::Event& ev : *events) {
      if (listen_fd_.valid() && ev.fd == listen_fd_.get()) {
        while (true) {
          auto accepted = net::AcceptConn(listen_fd_.get());
          if (!accepted.ok()) break;
          auto conn = std::make_unique<Connection>();
          conn->id = next_conn_id_++;
          conn->sock = net::WrapSocket(std::move(accepted).value(),
                                       options_.socket_wrapper);
          conn->last_activity_micros = NowMicros();
          stats_.AddAccepted();
          fd_index.emplace(conn->sock->fd(), conn->id);
          MutexLock lk(conns_mu_);
          conns_.emplace(conn->id, std::move(conn));
        }
        continue;
      }
      auto idx = fd_index.find(ev.fd);
      if (idx == fd_index.end()) continue;
      MutexLock lk(conns_mu_);
      auto cit = conns_.find(idx->second);
      if (cit == conns_.end()) continue;
      Connection* c = cit->second.get();
      if (ev.error) {
        c->dead = true;
        stats_.AddDropped();
        continue;
      }
      if (ev.writable && !HandleWritable(c)) {
        c->dead = true;
        continue;
      }
      if (ev.readable && !HandleReadable(c)) {
        c->dead = true;
        stats_.AddDropped();
      }
    }
  }
}

bool Server::HandleReadable(Connection* conn) {
  uint8_t tmp[16384];
  while (true) {
    int err = 0;
    ssize_t n = conn->sock->Read(tmp, sizeof(tmp), &err);
    if (n > 0) {
      stats_.AddBytesRead(static_cast<uint64_t>(n));
      conn->last_activity_micros = NowMicros();
      conn->rbuf.insert(conn->rbuf.end(), tmp, tmp + n);
      while (true) {
        Slice rest(conn->rbuf.data() + conn->rpos,
                   conn->rbuf.size() - conn->rpos);
        auto frame = net::TryDecodeFrame(rest);
        if (!frame.ok()) return false;  // corrupt stream: drop the conn
        if (!frame->complete) break;
        auto req = net::DecodeRequest(frame->body);
        conn->rpos += frame->frame_size;
        if (!req.ok()) return false;  // protocol violation
        ++conn->inflight;
        WorkItem item;
        item.request = std::move(req).value();
        item.enqueue_micros = NowMicros();
        // Deadline: the wire budget wins; absent one, the server
        // default applies. An explicit 0 budget is already expired.
        if (item.request.deadline_ms != net::kNoDeadline) {
          item.deadline_micros =
              item.enqueue_micros + item.request.deadline_ms * 1000;
        } else if (options_.request_deadline_ms > 0) {
          item.deadline_micros =
              item.enqueue_micros + options_.request_deadline_ms * 1000;
        }
        // Admission control: over the global cap, mark the request
        // shed — it rides the normal per-connection pipeline (so
        // responses stay in request order) but is answered kRetryLater
        // without ever touching the store.
        const size_t depth =
            queue_depth_.fetch_add(1, std::memory_order_relaxed);
        if (options_.max_queue > 0 && depth >= options_.max_queue) {
          queue_depth_.fetch_sub(1, std::memory_order_relaxed);
          item.shed = true;
          stats_.AddShed();
        }
        // A shed verdict at the head of this connection's pipeline is
        // answered right here on the I/O thread: rejecting load must
        // not consume the worker capacity it is protecting (a wedged
        // pool would otherwise delay even the "retry later" answers).
        // Mid-pipeline sheds still ride the queue for response order.
        if (item.shed && !conn->executing && conn->pending.empty()) {
          net::Response resp;
          resp.op = item.request.op;
          resp.request_id = item.request.request_id;
          resp.status =
              Status::RetryLater("server overloaded, retry later");
          stats_.Record(item.request.op,
                        NowMicros() - item.enqueue_micros,
                        resp.status.code());
          --conn->inflight;
          if (conn->woff >= conn->wbuf.size()) {
            conn->last_write_progress_micros = NowMicros();
          }
          std::vector<uint8_t> frame;
          net::EncodeResponse(resp, &frame);
          conn->wbuf.insert(conn->wbuf.end(), frame.begin(), frame.end());
          continue;
        }
        conn->pending.push_back(std::move(item));
        if (!conn->executing) {
          conn->executing = true;
          {
            MutexLock qk(queue_mu_);
            runnable_.push_back(conn->id);
          }
          queue_cv_.NotifyOne();
        }
      }
      if (conn->rpos > 0) {
        conn->rbuf.erase(conn->rbuf.begin(),
                         conn->rbuf.begin() +
                             static_cast<ptrdiff_t>(conn->rpos));
        conn->rpos = 0;
      }
      // Backpressure: stop pulling bytes once the connection is at its
      // in-flight cap; the interest pass re-enables reads after drain.
      if (conn->inflight >= kMaxInflightPerConn) break;
      // poll() is level-triggered: leftover bytes re-trigger readable.
      if (n < static_cast<ssize_t>(sizeof(tmp))) break;
    } else if (n == 0) {
      conn->peer_closed = true;
      break;
    } else {
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) break;
      return false;
    }
  }
  return true;
}

bool Server::HandleWritable(Connection* conn) {
  while (conn->woff < conn->wbuf.size()) {
    int err = 0;
    ssize_t n = conn->sock->Write(conn->wbuf.data() + conn->woff,
                                  conn->wbuf.size() - conn->woff, &err);
    if (n > 0) {
      stats_.AddBytesWritten(static_cast<uint64_t>(n));
      conn->woff += static_cast<size_t>(n);
      const uint64_t prog = NowMicros();
      conn->last_write_progress_micros = prog;
      conn->last_activity_micros = prog;
    } else {
      if (n < 0 && err == EINTR) continue;
      if (n < 0 && (err == EAGAIN || err == EWOULDBLOCK)) break;
      return false;
    }
  }
  if (conn->woff >= conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->woff = 0;
    conn->last_write_progress_micros = 0;
  } else if (conn->woff > (1u << 20)) {
    conn->wbuf.erase(conn->wbuf.begin(),
                     conn->wbuf.begin() + static_cast<ptrdiff_t>(conn->woff));
    conn->woff = 0;
  }
  return true;
}

void Server::WorkerLoop() {
  while (true) {
    uint64_t conn_id = 0;
    {
      MutexLock lk(queue_mu_);
      // Explicit loop (not a wait predicate): the guarded reads stay
      // visible to the thread safety analysis.
      while (!stop_workers_ && runnable_.empty()) queue_cv_.Wait(queue_mu_);
      if (runnable_.empty()) return;  // stop_workers_ and nothing left
      conn_id = runnable_.front();
      runnable_.pop_front();
    }
    WorkItem item;
    bool have_item = false;
    {
      MutexLock lk(conns_mu_);
      auto it = conns_.find(conn_id);
      if (it != conns_.end()) {
        Connection* c = it->second.get();
        if (!c->pending.empty()) {
          item = std::move(c->pending.front());
          c->pending.pop_front();
          have_item = true;
        } else {
          c->executing = false;  // stale runnable entry
        }
      }
    }
    if (!have_item) {
      poller_.Wake();
      continue;
    }
    net::Response resp;
    // The request context threads the client's trace id and the
    // resource accounting through every engine layer this request
    // touches, without any signature carrying it (request_context.h).
    obs::RequestContext rc;
    rc.trace_id = item.request.trace_id;
    if (item.shed) {
      // Admission control already rejected this request; answer
      // kRetryLater in pipeline order without executing.
      resp.op = item.request.op;
      resp.request_id = item.request.request_id;
      resp.status = Status::RetryLater("server overloaded, retry later");
    } else if (item.deadline_micros != 0 &&
               NowMicros() >= item.deadline_micros) {
      // Budget spent while queued: reject before touching the store —
      // the client has already given up on this response.
      resp.op = item.request.op;
      resp.request_id = item.request.request_id;
      resp.status = Status::DeadlineExceeded(
          "request deadline expired before execution");
      stats_.AddDeadlineExceeded();
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    } else {
      obs::ScopedRequestContext scoped_rc(&rc);
      LAXML_TRACE_SPAN(net::OpCodeName(item.request.op));
      resp = Execute(item.request);
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    }
    const uint64_t micros = NowMicros() - item.enqueue_micros;
    stats_.Record(item.request.op, micros, resp.status.code());
    if (options_.slow_op_micros > 0 && micros >= options_.slow_op_micros) {
      stats_.AddSlowOp();
      LAXML_LOG(kWarn) << "slow op: " << net::OpCodeName(item.request.op)
                       << " request_id=" << item.request.request_id
                       << " took " << micros << " us (threshold "
                       << options_.slow_op_micros << " us)";
      if (slow_log_.enabled()) {
        obs::SlowQueryLog::Entry entry;
        entry.op = net::OpCodeName(item.request.op);
        entry.request_id = item.request.request_id;
        entry.trace_id = item.request.trace_id;
        entry.query = item.request.expr;
        entry.plan = rc.plan;
        entry.status =
            resp.status.ok() ? "OK" : resp.status.ToString();
        entry.elapsed_us = micros;
        entry.counters = rc.counters;
        slow_log_.Append(entry);
      }
    }
    std::vector<uint8_t> frame;
    net::EncodeResponse(resp, &frame);
    bool more = false;
    {
      MutexLock lk(conns_mu_);
      auto it = conns_.find(conn_id);
      if (it != conns_.end()) {
        Connection* c = it->second.get();
        --c->inflight;
        if (!c->dead) {
          // Start the write-stall clock when the buffer first goes
          // non-empty; HandleWritable advances it on progress.
          if (c->woff >= c->wbuf.size()) {
            c->last_write_progress_micros = NowMicros();
          }
          c->wbuf.insert(c->wbuf.end(), frame.begin(), frame.end());
        }
        if (!c->pending.empty()) {
          more = true;  // keep `executing` set; next request is ours
        } else {
          c->executing = false;
        }
      }
    }
    if (more) {
      {
        MutexLock qk(queue_mu_);
        runnable_.push_back(conn_id);
      }
      queue_cv_.NotifyOne();
    }
    poller_.Wake();
  }
}

net::Response Server::Execute(const net::Request& req) {
  net::Response resp;
  resp.op = req.op;
  resp.request_id = req.request_id;
  using net::OpCode;
  if (const std::optional<WalOp> op = net::MutationOf(req.op)) {
    // Every mutating opcode is one Store::Apply; a delete's response
    // encodes no id (the wire drops it).
    Result<NodeId> r = store_.Apply(*op, req.target, req.data);
    if (r.ok()) {
      resp.id = *r;
    } else {
      resp.status = r.status();
    }
    return resp;
  }
  switch (req.op) {
    case OpCode::kPing:
      break;
    case OpCode::kRead: {
      auto r = store_.Read();
      if (r.ok()) {
        resp.tokens = std::move(r).value();
      } else {
        resp.status = r.status();
      }
      break;
    }
    case OpCode::kReadNode: {
      auto r = store_.Read(req.target);
      if (r.ok()) {
        resp.tokens = std::move(r).value();
      } else {
        resp.status = r.status();
      }
      break;
    }
    case OpCode::kXPath: {
      // The evaluator only reads (its lookups memoize, but the partial
      // index and buffer pool are reader-safe — see shared_store.h), so
      // concurrent queries share the latch with each other.
      auto r = store_.WithShared(
          [&req](Store& s) -> Result<std::vector<NodeId>> {
            XPathEvaluator eval(&s);
            return eval.Evaluate(req.expr);
          });
      if (r.ok()) {
        resp.ids = std::move(r).value();
      } else {
        resp.status = r.status();
      }
      break;
    }
    case OpCode::kCheckIntegrity:
      resp.status = store_.WithExclusive(
          [](Store& s) { return s.CheckIntegrity(); });
      break;
    case OpCode::kGetMetrics: {
      obs::Snapshot snap;
      CollectMetrics(&snap);
      resp.text = req.metrics_format == net::MetricsFormat::kPrometheus
                      ? obs::RenderPrometheus(snap)
                      : obs::RenderTable(snap);
      break;
    }
    case OpCode::kExplain: {
      if (req.explain_mode != net::ExplainMode::kProfile) {
        // Plan only: nothing runs, nothing warms.
        auto plan = store_.WithShared(
            [&req](Store& s) { return ExplainXPath(s, req.expr); });
        if (plan.ok()) {
          resp.text = plan->ToJson();
        } else {
          resp.status = plan.status();
        }
        break;
      }
      // The profile variant plans, runs and renders one plan under one
      // shared hold, so the plan shown is the plan that ran. A nested
      // request context makes the counters cover the measured query
      // alone, not this request's own bookkeeping.
      obs::RequestContext prof;
      prof.trace_id = obs::CurrentTraceId();
      uint64_t elapsed_us = 0;
      size_t results = 0;
      Result<XPathPlan> plan = [&] {
        obs::ScopedRequestContext scoped(&prof);
        LAXML_TRACE_SPAN("EXPLAIN_PROFILE_QUERY");
        const uint64_t start_us = NowMicros();
        return store_.WithShared([&](Store& s) -> Result<XPathPlan> {
          LAXML_ASSIGN_OR_RETURN(XPathPath path, ParseXPath(req.expr));
          LAXML_ASSIGN_OR_RETURN(XPathAccessPlan access, PlanXPath(s, path));
          LAXML_ASSIGN_OR_RETURN(std::vector<NodeId> ids,
                                 RunXPathPlan(s, path, access));
          elapsed_us = NowMicros() - start_us;
          results = ids.size();
          return RenderXPathPlan(req.expr, path, access);
        });
      }();
      if (!plan.ok()) {
        resp.status = plan.status();
        break;
      }
      std::string profile = "{\"elapsed_us\":" + std::to_string(elapsed_us);
      profile += ",\"results\":" + std::to_string(results);
      profile += ",\"counters\":";
      prof.counters.AppendJson(&profile);
      profile += "}";
      plan->profile_json = std::move(profile);
      resp.text = plan->ToJson();
      break;
    }
    default:  // the mutations, answered above
      break;
  }
  return resp;
}

}  // namespace laxml
