#include "server/server_stats.h"

#include <cstdio>

namespace laxml {

uint64_t ServerStatsSnapshot::TotalRequests() const {
  uint64_t n = 0;
  for (const OpStatsSnapshot& op : ops) n += op.latency.count;
  return n;
}

uint64_t ServerStatsSnapshot::TotalErrors() const {
  uint64_t n = 0;
  for (const OpStatsSnapshot& op : ops) n += op.errors;
  return n;
}

std::string ServerStatsSnapshot::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "server: %llu requests (%llu errors), %llu conns "
                "(%llu dropped), %llu B in, %llu B out\n",
                static_cast<unsigned long long>(TotalRequests()),
                static_cast<unsigned long long>(TotalErrors()),
                static_cast<unsigned long long>(connections_accepted),
                static_cast<unsigned long long>(connections_dropped),
                static_cast<unsigned long long>(bytes_read),
                static_cast<unsigned long long>(bytes_written));
  out += line;
  if (sheds != 0 || deadline_exceeded != 0 || reaped_connections != 0 ||
      queue_depth != 0) {
    std::snprintf(line, sizeof(line),
                  "overload: %llu shed, %llu deadline-exceeded, "
                  "%llu reaped conns, queue depth %llu\n",
                  static_cast<unsigned long long>(sheds),
                  static_cast<unsigned long long>(deadline_exceeded),
                  static_cast<unsigned long long>(reaped_connections),
                  static_cast<unsigned long long>(queue_depth));
    out += line;
  }
  for (uint8_t i = 0; i <= net::kMaxOpCode; ++i) {
    const OpStatsSnapshot& op = ops[i];
    if (op.latency.count == 0) continue;
    std::snprintf(line, sizeof(line),
                  "  %-18s %8llu reqs %6llu errs  mean %8.1f us  "
                  "p50 %8.1f  p95 %8.1f  p99 %8.1f  max %8llu us\n",
                  net::OpCodeName(static_cast<net::OpCode>(i)),
                  static_cast<unsigned long long>(op.latency.count),
                  static_cast<unsigned long long>(op.errors),
                  op.latency.Mean(), op.latency.Percentile(0.50),
                  op.latency.Percentile(0.95), op.latency.Percentile(0.99),
                  static_cast<unsigned long long>(op.latency.max));
    out += line;
  }
  return out;
}

void ServerStatsSnapshot::CollectMetrics(obs::Snapshot* snap) const {
  for (uint8_t i = 0; i <= net::kMaxOpCode; ++i) {
    const OpStatsSnapshot& op = ops[i];
    if (op.latency.count == 0) continue;
    const std::string labels =
        "{op=\"" +
        obs::EscapePrometheusLabelValue(
            net::OpCodeName(static_cast<net::OpCode>(i))) +
        "\"}";
    snap->histograms["laxml_server_op_us" + labels] = op.latency;
    snap->counters["laxml_server_requests_total" + labels] =
        op.latency.count;
    snap->counters["laxml_server_errors_total" + labels] = op.errors;
  }
  auto& counters = snap->counters;
  counters["laxml_server_connections_accepted_total"] = connections_accepted;
  counters["laxml_server_connections_dropped_total"] = connections_dropped;
  counters["laxml_server_bytes_read_total"] = bytes_read;
  counters["laxml_server_bytes_written_total"] = bytes_written;
  for (int i = 0; i < kStatusCodeCount; ++i) {
    if (responses_by_status[i] == 0) continue;
    counters["laxml_server_responses_total{status=\"" +
             obs::EscapePrometheusLabelValue(
                 StatusCodeName(static_cast<StatusCode>(i))) +
             "\"}"] = responses_by_status[i];
  }
  counters["laxml_server_shed_total"] = sheds;
  counters["laxml_server_deadline_exceeded_total"] = deadline_exceeded;
  counters["laxml_server_reaped_connections_total"] = reaped_connections;
  if (slow_ops > 0) counters["laxml_server_slow_ops_total"] = slow_ops;
  snap->gauges["laxml_server_queue_depth"] =
      static_cast<int64_t>(queue_depth);
}

void ServerStats::Record(net::OpCode op, uint64_t micros, StatusCode code) {
  OpCell& cell = ops_[static_cast<uint8_t>(op)];
  if (code != StatusCode::kOk) cell.errors.fetch_add(1, kRelaxed);
  cell.latency.Record(micros);
  const int idx = static_cast<int>(code);
  if (idx >= 0 && idx < kStatusCodeCount) {
    responses_by_status_[idx].fetch_add(1, kRelaxed);
  }
}

ServerStatsSnapshot ServerStats::Snapshot() const {
  ServerStatsSnapshot snap;
  for (uint8_t i = 0; i <= net::kMaxOpCode; ++i) {
    snap.ops[i].latency = ops_[i].latency.snapshot();
    snap.ops[i].errors = ops_[i].errors.load(kRelaxed);
  }
  snap.connections_accepted = connections_accepted_.load(kRelaxed);
  snap.connections_dropped = connections_dropped_.load(kRelaxed);
  snap.bytes_read = bytes_read_.load(kRelaxed);
  snap.bytes_written = bytes_written_.load(kRelaxed);
  for (int i = 0; i < kStatusCodeCount; ++i) {
    snap.responses_by_status[i] = responses_by_status_[i].load(kRelaxed);
  }
  snap.sheds = sheds_.load(kRelaxed);
  snap.deadline_exceeded = deadline_exceeded_.load(kRelaxed);
  snap.reaped_connections = reaped_connections_.load(kRelaxed);
  snap.slow_ops = slow_ops_.load(kRelaxed);
  return snap;
}

}  // namespace laxml
