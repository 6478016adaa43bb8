// The laxml network server: owns a SharedStore and serves the wire
// protocol (net/wire.h) over TCP.
//
// Threading model — one I/O thread plus a worker pool:
//
//   * The I/O thread runs the Poller: accepts connections, reads bytes
//     into per-connection buffers, peels complete frames off, decodes
//     requests, and enqueues them on the work queue. It also flushes
//     per-connection write buffers when sockets turn writable.
//   * Worker threads pop runnable connections, execute their requests
//     against the SharedStore (which serializes writers; see
//     shared_store.h), encode the response frame into the connection's
//     write buffer, and wake the poller.
//
// Ordering: one connection's requests execute serially, in arrival
// order — a pipelined batch may therefore contain dependent operations
// ("insert node, then insert into it") and responses always come back
// in request order. Different connections execute in parallel.
//
// Backpressure: a connection with 128 requests in flight or more than
// 8 MiB of unflushed responses (kMaxInflightPerConn and
// kMaxWriteBufferBytes in server.cc) stops being read until it drains —
// a slow or flooding client throttles itself, not the server. A frame
// body over net::kMaxFrameBody is a protocol error and closes the
// connection.
//
// Overload: beyond per-connection backpressure, a global admission cap
// (max_queue) bounds the total work queue; excess requests are shed
// with kRetryLater before touching the store. Requests carry optional
// deadlines (wire varint or the server default) and are answered
// DeadlineExceeded once expired, again without touching the store.
// Stalled writers and idle connections are reaped on a timer so a
// slow peer costs a bounded amount of memory and never a worker.
//
// Graceful shutdown: Shutdown() stops accepting and reading, lets the
// workers finish every queued request, flushes the responses (bounded
// by drain_flush_timeout_ms against clients that never read), then
// closes everything and joins the threads. The store object survives
// the server; the caller decides when to Sync/close it.

#ifndef LAXML_SERVER_SERVER_H_
#define LAXML_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "concurrency/shared_store.h"
#include "net/poller.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/slow_log.h"
#include "server/server_stats.h"

namespace laxml {

struct ServerOptions {
  /// Bind address. Loopback by default: the protocol has no auth, so
  /// exposing it wider is an explicit decision (laxml_server --host).
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with Server::port().
  uint16_t port = 0;
  int num_workers = 4;
  /// How long shutdown keeps flushing responses to clients that are
  /// not reading before force-closing them. Also the hard deadline on
  /// the whole graceful drain: when it passes, remaining connections
  /// are closed with whatever has flushed (laxml_server
  /// --drain-timeout-s).
  int drain_flush_timeout_ms = 5000;
  /// Admission control: cap on requests admitted (decoded and waiting
  /// or executing) across all connections. Excess requests are
  /// answered kRetryLater in arrival order without touching the store
  /// — explicit shedding instead of unbounded queueing (laxml_server
  /// --max-queue). 0 = unbounded.
  size_t max_queue = 1024;
  /// Default server-side deadline (ms) for requests that carry none on
  /// the wire. A request whose budget is spent before a worker picks
  /// it up is answered DeadlineExceeded without touching the store.
  /// 0 = none (laxml_server --request-deadline-ms).
  uint64_t request_deadline_ms = 0;
  /// Reap a connection whose pending responses have made no write
  /// progress for this long — a stalled or deliberately slow reader
  /// holds buffer memory, never a worker. 0 disables (laxml_server
  /// --write-timeout-ms).
  int write_timeout_ms = 10000;
  /// Reap a connection with nothing in flight and no read activity for
  /// this long (slowloris guard). 0 disables (laxml_server
  /// --idle-timeout-s).
  int idle_timeout_s = 0;
  /// Decorates every accepted socket (fault injection seam).
  net::SocketWrapper socket_wrapper;
  /// When > 0, any request whose service time (queue + execute)
  /// reaches this many microseconds is logged at WARN with its opcode
  /// and request id (laxml_server --slow-op-us).
  uint64_t slow_op_micros = 0;
  /// When non-empty, every slow op (same threshold) additionally
  /// appends a structured JSONL record — query, plan, resource
  /// counters, trace id — here (laxml_server --slow-log).
  std::string slow_log_path;
};

/// A running server. Create with Start(), stop with Shutdown() (the
/// destructor calls it too).
class Server {
 public:
  /// Takes ownership of `store`, binds, and spins up the threads.
  static Result<std::unique_ptr<Server>> Start(
      std::unique_ptr<Store> store, const ServerOptions& options = {});

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Port actually bound (resolves an ephemeral request).
  uint16_t port() const { return port_; }

  /// Graceful stop: drain in-flight requests, flush, close, join.
  /// Idempotent; concurrent callers block until the stop completes.
  void Shutdown();

  /// The store being served. Safe to use concurrently with the server
  /// (SharedStore serializes); after Shutdown() the caller owns the
  /// only access path.
  SharedStore* shared_store() { return &store_; }

  ServerStatsSnapshot stats() const {
    ServerStatsSnapshot snap = stats_.Snapshot();
    snap.queue_depth = queue_depth_.load(std::memory_order_relaxed);
    return snap;
  }

  /// The one snapshot of everything this server and its store count:
  /// the store's stats structs, the latch counters, this server's op
  /// table and the tracer's ring drops. GetMetrics renders it per
  /// scrape; it stays valid after Shutdown(), since the store outlives
  /// the workers.
  void CollectMetrics(obs::Snapshot* snap);

 private:
  struct WorkItem {
    net::Request request;
    uint64_t enqueue_micros = 0;
    /// Absolute expiry (micros, NowMicros clock); 0 = no deadline. Set
    /// at decode time from the wire budget or the server default.
    uint64_t deadline_micros = 0;
    /// Admission control rejected this request; the worker answers
    /// kRetryLater without executing. Shed verdicts ride the normal
    /// per-connection pipeline so responses stay in request order.
    bool shed = false;
  };

  /// Per-connection state. `rbuf`/`rpos` belong to the I/O thread;
  /// everything else is guarded by conns_mu_.
  struct Connection {
    uint64_t id = 0;
    std::unique_ptr<net::Socket> sock;
    std::vector<uint8_t> rbuf;
    size_t rpos = 0;
    std::vector<uint8_t> wbuf;
    size_t woff = 0;
    /// Requests parsed but not yet executed (FIFO per connection).
    std::deque<WorkItem> pending;
    /// A worker currently owns this connection's head request.
    bool executing = false;
    /// pending.size() + (executing ? 1 : 0); drives backpressure and
    /// connection teardown.
    size_t inflight = 0;
    bool peer_closed = false;  ///< Read side saw EOF; finish responses.
    bool dead = false;         ///< Socket error; discard everything.
    /// Last successful read or write (micros); drives idle reaping.
    uint64_t last_activity_micros = 0;
    /// Last time the write buffer advanced (or first went non-empty);
    /// drives write-stall reaping. 0 = nothing buffered yet.
    uint64_t last_write_progress_micros = 0;
  };

  Server(std::unique_ptr<Store> store, const ServerOptions& options);

  Status Init();
  void DoShutdown();
  void IoLoop();
  void WorkerLoop();

  /// Reads all available bytes, peels frames, enqueues requests.
  /// Returns false when the connection must be dropped (protocol
  /// error or socket failure).
  bool HandleReadable(Connection* conn);
  /// Flushes the write buffer. Returns false on socket failure.
  bool HandleWritable(Connection* conn);
  net::Response Execute(const net::Request& req);

  ServerOptions options_;
  SharedStore store_;
  ServerStats stats_;
  obs::SlowQueryLog slow_log_;
  net::Poller poller_;
  net::UniqueFd listen_fd_;
  uint16_t port_ = 0;

  Mutex conns_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_
      LAXML_GUARDED_BY(conns_mu_);
  /// I/O-thread private (ids are minted before the connection is
  /// published under conns_mu_), so not latch-guarded.
  uint64_t next_conn_id_ = 1;

  /// Connections with a dispatchable head request. A connection id
  /// appears at most once (the `executing` flag gates enqueues), which
  /// is what serializes one connection's requests across the pool.
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<uint64_t> runnable_ LAXML_GUARDED_BY(queue_mu_);
  bool stop_workers_ LAXML_GUARDED_BY(queue_mu_) = false;

  /// Requests admitted (decoded, not shed) and not yet completed, all
  /// connections together — the quantity max_queue bounds.
  std::atomic<size_t> queue_depth_{0};
  std::atomic<bool> draining_{false};
  std::once_flag shutdown_once_;
  std::thread io_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace laxml

#endif  // LAXML_SERVER_SERVER_H_
