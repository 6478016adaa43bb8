// Per-operation service counters for the laxml server: error count and
// a full log2 latency histogram per OpCode (its count is the request
// count), updated lock-free by worker threads and snapshotted into the
// server's metrics snapshot (GetMetrics and the shutdown summary).
// Server-side p50/p95/p99 show the tail without client cooperation.
//
// The table is per-Server, so several servers in one process (tests,
// in-process A/B runs) see isolated counters; the GetMetrics op merges
// it into one snapshot with its store's stats.

#ifndef LAXML_SERVER_SERVER_STATS_H_
#define LAXML_SERVER_SERVER_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace laxml {

/// Immutable copy of one op's counters.
struct OpStatsSnapshot {
  uint64_t errors = 0;
  obs::HistogramSnapshot latency;  ///< Service time, microseconds.
};

/// Immutable copy of the whole table.
struct ServerStatsSnapshot {
  OpStatsSnapshot ops[net::kMaxOpCode + 1];
  uint64_t connections_accepted = 0;
  uint64_t connections_dropped = 0;  ///< Protocol errors / overload closes.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// Responses by status code (index = StatusCode value).
  uint64_t responses_by_status[kStatusCodeCount] = {};
  uint64_t sheds = 0;              ///< Requests answered kRetryLater.
  uint64_t deadline_exceeded = 0;  ///< Requests expired pre-execution.
  uint64_t reaped_connections = 0; ///< Write-stall + idle reaps.
  uint64_t slow_ops = 0;  ///< Requests at or over --slow-op-us.
  /// Point-in-time admitted-queue depth (filled by Server::stats()).
  uint64_t queue_depth = 0;

  uint64_t TotalRequests() const;

  /// Adds the table to a scrape's snapshot: laxml_server_op_us{op="NAME"}
  /// histograms, the request/error/connection/byte/overload counters,
  /// laxml_server_slow_ops_total once an op was slow, and the
  /// queue-depth gauge. The GetMetrics op renders them together with the
  /// store's.
  void CollectMetrics(obs::Snapshot* snap) const;
};

/// The live, thread-safe counter table.
class ServerStats {
 public:
  /// Records one served request (including error, shed, and expired
  /// responses) of `op` taking `micros`, answered with `code`.
  void Record(net::OpCode op, uint64_t micros, StatusCode code);

  void AddAccepted() { connections_accepted_.fetch_add(1, kRelaxed); }
  void AddDropped() { connections_dropped_.fetch_add(1, kRelaxed); }
  void AddBytesRead(uint64_t n) { bytes_read_.fetch_add(n, kRelaxed); }
  void AddBytesWritten(uint64_t n) { bytes_written_.fetch_add(n, kRelaxed); }
  void AddShed() { sheds_.fetch_add(1, kRelaxed); }
  void AddDeadlineExceeded() { deadline_exceeded_.fetch_add(1, kRelaxed); }
  void AddReaped() { reaped_connections_.fetch_add(1, kRelaxed); }
  void AddSlowOp() { slow_ops_.fetch_add(1, kRelaxed); }

  ServerStatsSnapshot Snapshot() const;

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

  struct OpCell {
    std::atomic<uint64_t> errors{0};
    obs::Histogram latency;  ///< count doubles as the request count.
  };

  OpCell ops_[net::kMaxOpCode + 1];
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_dropped_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> responses_by_status_[kStatusCodeCount] = {};
  std::atomic<uint64_t> sheds_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> reaped_connections_{0};
  std::atomic<uint64_t> slow_ops_{0};
};

}  // namespace laxml

#endif  // LAXML_SERVER_SERVER_STATS_H_
