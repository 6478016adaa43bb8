// laxml_top: live terminal view of a running laxml_server's metrics.
//
//   laxml_top [--host H] [--port N] [--interval-ms N] [--iterations N]
//             [--slow-log FILE]
//
// Polls the kGetMetrics op in Prometheus format, parses it back with
// obs::ParsePrometheus, and repaints a screenful every interval: server
// request/error rates, per-op p50/p95/p99, buffer-pool hit rate, WAL
// sync latency, index hit rates, and the store's range/node levels.
// Counter rows show a per-second rate computed from consecutive
// samples; latency quantiles come from the histogram buckets that
// filled between them (the first paint, with no earlier sample, shows
// lifetime figures); gauge rows show the level as-is.
//
// --slow-log FILE tails the server's structured slow-query log (the
// file given to laxml_server --slow-log) and shows the most recent
// entries — query, plan, elapsed time — as a bottom pane.
//
// A lost connection (server restart) is not fatal: laxml_top keeps
// retrying with exponential backoff and resumes painting when the
// server is back (rate windows restart from the reconnect).
//
// --iterations N exits after N repaints (scripts/CI use 1); --raw
// skips the ANSI clear so output can be piped.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "net/client.h"
#include "obs/metrics.h"

namespace {

using laxml::net::Client;
using laxml::net::MetricsFormat;
using laxml::obs::HistogramSnapshot;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port N] [--interval-ms N]\n"
               "          [--iterations N] [--slow-log FILE] [--raw]\n"
               "Live metrics view of a running laxml_server (kGetMetrics\n"
               "poller). --iterations 1 --raw prints one sample and exits.\n"
               "--slow-log FILE tails the server's slow-query JSONL log.\n",
               argv0);
}

/// One polled sample: the scrape parsed back into its counters, gauges
/// and histograms, keyed by series name (laxml_wal_syncs_total,
/// laxml_server_op_us{op="READ"}, ...).
using Sample = laxml::obs::Snapshot;

/// A counter or gauge (0 when absent).
double Get(const Sample& s, const std::string& name) {
  if (auto it = s.counters.find(name); it != s.counters.end()) {
    return static_cast<double>(it->second);
  }
  if (auto it = s.gauges.find(name); it != s.gauges.end()) {
    return static_cast<double>(it->second);
  }
  return 0.0;
}

/// The values histogram `name` recorded between two samples (all of
/// them when `prev` lacks it, as on the first paint).
HistogramSnapshot Window(const Sample& prev, const Sample& cur,
                         const std::string& name) {
  auto it = cur.histograms.find(name);
  if (it == cur.histograms.end()) return HistogramSnapshot{};
  auto before = prev.histograms.find(name);
  return before == prev.histograms.end() ? it->second
                                         : it->second.Since(before->second);
}

/// "p50 ..  p95 ..  p99 .." of a window, dashes when it is empty.
std::string Quantiles(const HistogramSnapshot& h, int width) {
  char buf[96];
  if (h.count == 0) {
    std::snprintf(buf, sizeof(buf), "p50 %*s  p95 %*s  p99 %*s", width, "-",
                  width, "-", width, "-");
  } else {
    std::snprintf(buf, sizeof(buf), "p50 %*.0f  p95 %*.0f  p99 %*.0f",
                  width, h.Percentile(0.50), width, h.Percentile(0.95),
                  width, h.Percentile(0.99));
  }
  return buf;
}

/// Per-second rate of a counter between two samples.
double Rate(const Sample& prev, const Sample& cur, const std::string& name,
            double dt_sec) {
  if (dt_sec <= 0.0) return 0.0;
  const double d = Get(cur, name) - Get(prev, name);
  return d > 0.0 ? d / dt_sec : 0.0;
}

/// Hit ratio (%) from hits/lookups counters, over the delta window.
double HitPct(const Sample& prev, const Sample& cur,
              const std::string& hits, const std::string& lookups) {
  const double dl = Get(cur, lookups) - Get(prev, lookups);
  if (dl <= 0.0) return 0.0;
  const double dh = Get(cur, hits) - Get(prev, hits);
  return 100.0 * dh / dl;
}

/// Pulls the value of `"key":"..."` out of one JSONL slow-log line
/// ("" when absent). No unescaping beyond stopping at the closing
/// quote — good enough for a glanceable pane.
std::string JsonField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::string out;
  for (size_t i = at + needle.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out += line[++i];
      continue;
    }
    if (line[i] == '"') break;
    out += line[i];
  }
  return out;
}

/// Pulls the value of `"key":N` (0.0 when absent).
double JsonNumber(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

/// The last `limit` lines of the slow-query log (reads only the file
/// tail, so a long-lived log stays cheap to poll).
std::vector<std::string> TailLines(const std::string& path, size_t limit) {
  std::vector<std::string> lines;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return lines;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  const long want = 16 * 1024;
  const long start = size > want ? size - want : 0;
  std::fseek(f, start, SEEK_SET);
  std::string buf(static_cast<size_t>(size - start), '\0');
  const size_t got = std::fread(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  buf.resize(got);
  size_t pos = 0;
  while (pos < buf.size()) {
    size_t eol = buf.find('\n', pos);
    if (eol == std::string::npos) eol = buf.size();
    if (eol > pos) lines.emplace_back(buf.substr(pos, eol - pos));
    pos = eol + 1;
  }
  // A truncated first line (mid-file seek) is dropped unless the read
  // started at offset 0.
  if (start > 0 && !lines.empty()) lines.erase(lines.begin());
  if (lines.size() > limit) {
    lines.erase(lines.begin(),
                lines.begin() + static_cast<long>(lines.size() - limit));
  }
  return lines;
}

void PaintSlowQueries(const std::string& path) {
  std::printf("\nrecent slow queries (%s)\n", path.c_str());
  const std::vector<std::string> lines = TailLines(path, 5);
  if (lines.empty()) {
    std::printf("  (none)\n");
    return;
  }
  for (const std::string& line : lines) {
    std::string query = JsonField(line, "query");
    if (query.empty()) query = "-";
    if (query.size() > 32) query = query.substr(0, 29) + "...";
    std::string plan = JsonField(line, "plan");
    if (plan.empty()) plan = "-";
    std::printf("  %9.0fus  %-8s %-15s %s\n",
                JsonNumber(line, "elapsed_us"),
                JsonField(line, "op").c_str(), plan.c_str(),
                query.c_str());
  }
}

void Paint(const Sample& prev, const Sample& cur, double dt_sec,
           bool first, const std::string& slow_log_path) {
  std::printf("laxml_top — %.1fs window\n", first ? 0.0 : dt_sec);
  std::printf("\nserver\n");
  double req_delta = 0.0;
  for (const auto& [name, v] : cur.counters) {
    if (name.rfind("laxml_server_requests_total", 0) == 0) {
      req_delta += static_cast<double>(v) - Get(prev, name);
    }
  }
  std::printf("  %-28s %10.1f /s\n", "requests",
              dt_sec > 0.0 ? req_delta / dt_sec : 0.0);
  // Per-op latency rows from the server's histogram families: lifetime
  // request count, quantiles over the window.
  for (const auto& [name, h] : cur.histograms) {
    const std::string prefix = "laxml_server_op_us{op=\"";
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string op =
        name.substr(prefix.size(), name.size() - prefix.size() - 2);
    std::printf("  %-18s %8llu reqs  %s us\n", op.c_str(),
                static_cast<unsigned long long>(h.count),
                Quantiles(Window(prev, cur, name), 8).c_str());
  }

  std::printf("\noverload\n");
  std::printf("  %-28s %10.0f\n", "queue depth",
              Get(cur, "laxml_server_queue_depth"));
  std::printf("  %-28s %10.0f  (%.1f /s)\n", "requests shed",
              Get(cur, "laxml_server_shed_total"),
              Rate(prev, cur, "laxml_server_shed_total", dt_sec));
  std::printf("  %-28s %10.0f  (%.1f /s)\n", "deadline exceeded",
              Get(cur, "laxml_server_deadline_exceeded_total"),
              Rate(prev, cur, "laxml_server_deadline_exceeded_total",
                   dt_sec));
  std::printf("  %-28s %10.0f\n", "connections reaped",
              Get(cur, "laxml_server_reaped_connections_total"));
  // Response mix by status over the window — the at-a-glance answer to
  // "is the server failing requests, and with what?".
  for (const auto& [name, v] : cur.counters) {
    const std::string prefix = "laxml_server_responses_total{status=\"";
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string status =
        name.substr(prefix.size(), name.size() - prefix.size() - 2);
    std::printf("  %-28s %10llu  (%.1f /s)\n",
                ("responses " + status).c_str(),
                static_cast<unsigned long long>(v),
                Rate(prev, cur, name, dt_sec));
  }

  std::printf("\nstorage\n");
  // Pool hit rate over the window: hits / (hits + misses).
  {
    const double dh = Get(cur, "laxml_bufferpool_hits_total") -
                      Get(prev, "laxml_bufferpool_hits_total");
    const double dm = Get(cur, "laxml_bufferpool_misses_total") -
                      Get(prev, "laxml_bufferpool_misses_total");
    const double pct = dh + dm > 0.0 ? 100.0 * dh / (dh + dm) : 0.0;
    std::printf("  %-28s %9.1f%%  (%.0f reads/s)\n",
                "buffer pool hit rate", pct,
                Rate(prev, cur, "laxml_bufferpool_page_reads_total",
                     dt_sec));
  }
  std::printf("  %-28s %10.1f /s\n", "wal syncs",
              Rate(prev, cur, "laxml_wal_syncs_total", dt_sec));
  std::printf("  %-28s %s us\n", "wal fsync latency",
              Quantiles(Window(prev, cur, "laxml_wal_fsync_us"), 6).c_str());
  // Group-commit effectiveness: records made durable per fsync over the
  // window. 1.0 = no batching; higher = the sequencer is amortizing.
  {
    const double da = Get(cur, "laxml_wal_appends_total") -
                      Get(prev, "laxml_wal_appends_total");
    const double ds = Get(cur, "laxml_wal_syncs_total") -
                      Get(prev, "laxml_wal_syncs_total");
    if (ds > 0.0) {
      std::printf("  %-28s %10.1f\n", "wal records per fsync", da / ds);
    } else {
      std::printf("  %-28s %10s\n", "wal records per fsync", "-");
    }
  }

  // Compression health: encoded payload bytes per stored token (the
  // name dictionary's whole point) and how many names it interned.
  std::printf("  %-28s %10.2f  (%.0f symbols)\n", "storage bytes/token",
              Get(cur, "laxml_storage_bytes_per_token_x1000") / 1000.0,
              Get(cur, "laxml_dict_symbols"));

  std::printf("\nconcurrency\n");
  // Shared vs exclusive latch acquisitions over the window: how much of
  // the load rode the concurrent read path.
  {
    const double dsh = Get(cur, "laxml_latch_shared_total") -
                       Get(prev, "laxml_latch_shared_total");
    const double dex = Get(cur, "laxml_latch_exclusive_total") -
                       Get(prev, "laxml_latch_exclusive_total");
    const double pct =
        dsh + dex > 0.0 ? 100.0 * dsh / (dsh + dex) : 0.0;
    std::printf("  %-28s %9.1f%%  (%.0f shared/s, %.0f excl/s)\n",
                "shared latch share", pct, dt_sec > 0.0 ? dsh / dt_sec : 0.0,
                dt_sec > 0.0 ? dex / dt_sec : 0.0);
  }

  std::printf("\nindexes\n");
  std::printf("  %-28s %9.1f%%\n", "partial index hit rate",
              HitPct(prev, cur, "laxml_partial_hits_total",
                     "laxml_partial_lookups_total"));
  std::printf("  %-28s %9.1f%%\n", "range index hit rate",
              HitPct(prev, cur, "laxml_rangeindex_hits_total",
                     "laxml_rangeindex_lookups_total"));
  std::printf("  %-28s %10.0f\n", "partial index entries",
              Get(cur, "laxml_partial_index_entries"));

  std::printf("\nobservability\n");
  // Span loss: rings overwrote undrained slots. Nonzero and growing
  // means the trace window is shorter than the dump interval.
  std::printf("  %-28s %10.0f  (%.1f /s)\n", "trace ring dropped",
              Get(cur, "laxml_trace_ring_dropped_total"),
              Rate(prev, cur, "laxml_trace_ring_dropped_total", dt_sec));
  std::printf("  %-28s %10.0f\n", "slow ops",
              Get(cur, "laxml_server_slow_ops_total"));

  std::printf("\nstore\n");
  std::printf("  %-28s %10.0f\n", "ranges", Get(cur, "laxml_store_ranges"));
  std::printf("  %-28s %10.0f\n", "live nodes",
              Get(cur, "laxml_store_live_nodes"));
  std::printf("  %-28s %10.1f /s\n", "range splits",
              Rate(prev, cur, "laxml_range_splits_total", dt_sec));
  std::printf("  %-28s %10.0f\n", "pool dirty frames",
              Get(cur, "laxml_pool_dirty_frames"));
  if (!slow_log_path.empty()) PaintSlowQueries(slow_log_path);
  std::fflush(stdout);
}

uint64_t NowMillis() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000u +
         static_cast<uint64_t>(ts.tv_nsec) / 1'000'000u;
}

void SleepMillis(long ms) {
  timespec nap{ms / 1000, (ms % 1000) * 1'000'000L};
  ::nanosleep(&nap, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  long port = 4891;
  long interval_ms = 1000;
  long iterations = -1;  // forever
  bool raw = false;
  std::string slow_log_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_number = [&](const char* flag, long min_value) -> long {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      char* end = nullptr;
      long v = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || v < min_value) {
        std::fprintf(stderr, "%s: bad value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return v;
    };
    if (std::strcmp(arg, "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else if (std::strcmp(arg, "--port") == 0) {
      port = next_number(arg, 1);
    } else if (std::strcmp(arg, "--interval-ms") == 0) {
      interval_ms = next_number(arg, 10);
    } else if (std::strcmp(arg, "--iterations") == 0) {
      iterations = next_number(arg, 1);
    } else if (std::strcmp(arg, "--slow-log") == 0 && i + 1 < argc) {
      slow_log_path = argv[++i];
    } else if (std::strcmp(arg, "--raw") == 0) {
      raw = true;
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
      Usage(argv[0]);
      return 2;
    }
  }
  if (port > 65535) {
    std::fprintf(stderr, "%s: port out of range\n", argv[0]);
    return 2;
  }

  auto client = Client::Connect(host, static_cast<uint16_t>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 client.status().ToString().c_str());
    return 1;
  }

  // Redial policy after a lost connection (server restart): exponential
  // backoff, unbounded when watching forever, bounded for finite
  // (scripted) runs so a dead server cannot hang CI.
  laxml::net::ClientOptions redial;
  redial.connect_attempts = 1;
  const int max_redials = iterations >= 0 ? 10 : -1;

  Sample prev;
  uint64_t prev_ms = NowMillis();
  bool first = true;
  for (long n = 0; iterations < 0 || n < iterations; ++n) {
    auto text = (*client)->GetMetrics(MetricsFormat::kPrometheus);
    if (!text.ok()) {
      std::fprintf(stderr, "%s: lost server (%s); reconnecting\n",
                   argv[0], text.status().ToString().c_str());
      long backoff_ms = 250;
      int attempts = 0;
      for (;;) {
        SleepMillis(backoff_ms);
        auto again =
            Client::Connect(host, static_cast<uint16_t>(port), redial);
        if (again.ok()) {
          client = std::move(again);
          break;
        }
        if (max_redials >= 0 && ++attempts >= max_redials) {
          std::fprintf(stderr, "%s: gave up after %d attempts: %s\n",
                       argv[0], attempts,
                       again.status().ToString().c_str());
          return 1;
        }
        if (backoff_ms < 5000) backoff_ms *= 2;
      }
      // The new server's counters restart from zero; restart the rate
      // window rather than painting huge negative deltas as zeros.
      prev = Sample{};
      prev_ms = NowMillis();
      first = true;
      --n;
      continue;
    }
    Sample cur = laxml::obs::ParsePrometheus(*text);
    const uint64_t now_ms = NowMillis();
    const double dt_sec =
        static_cast<double>(now_ms - prev_ms) / 1000.0;
    if (!raw) std::printf("\x1b[H\x1b[2J");  // home + clear
    Paint(prev, cur, dt_sec, first, slow_log_path);
    prev = std::move(cur);
    prev_ms = now_ms;
    first = false;
    if (iterations >= 0 && n + 1 >= iterations) break;
    SleepMillis(interval_ms);
  }
  return 0;
}
