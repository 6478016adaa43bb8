// Shared helpers for the laxml benchmark binaries: wall-clock timing,
// temp database files, workload assembly, and kb/s arithmetic.
//
// Bench binaries print paper-shaped tables (rows/series matching the
// evaluation artifacts indexed in DESIGN.md) on stdout; machine-oriented
// counters go on the same line so EXPERIMENTS.md can quote them.

#ifndef LAXML_BENCH_BENCH_UTIL_H_
#define LAXML_BENCH_BENCH_UTIL_H_

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "store/store.h"
#include "xml/token_codec.h"
#include "xml/token_sequence.h"

/// Ends the bench binary with the status text when `expr` is not OK: a
/// failed store call leaves nothing worth timing.
#define BENCH_CHECK(expr)                                          \
  do {                                                             \
    ::laxml::Status _st = (expr);                                  \
    if (!_st.ok()) {                                               \
      std::fprintf(stderr, "FATAL %s:%d %s\n", __FILE__, __LINE__, \
                   _st.ToString().c_str());                        \
      std::exit(1);                                                \
    }                                                              \
  } while (0)

namespace laxml {
namespace bench {

/// Monotonic wall clock in seconds.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Simple scope timer.
class Timer {
 public:
  Timer() : start_(NowSeconds()) {}
  double Seconds() const { return NowSeconds() - start_; }

 private:
  double start_;
};

/// kb/s with divide-by-zero safety.
inline double KbPerSec(uint64_t bytes, double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<double>(bytes) / 1024.0 / seconds;
}

/// Total encoded byte size of a token sequence (the unit the paper's
/// kb/s metric counts).
inline uint64_t EncodedBytes(const TokenSequence& tokens) {
  uint64_t n = 0;
  for (const Token& t : tokens) n += EncodedTokenSize(t);
  return n;
}

/// Node ids of every begin-element named `name`, in document order.
inline std::vector<NodeId> ElementIds(Store* store, const std::string& name) {
  std::vector<NodeId> ids;
  auto all = store->ReadWithIds(&ids);
  BENCH_CHECK(all.status());
  std::vector<NodeId> out;
  for (size_t i = 0; i < all->size(); ++i) {
    if ((*all)[i].type == TokenType::kBeginElement && (*all)[i].name == name) {
      out.push_back(ids[i]);
    }
  }
  return out;
}

/// Sorts *samples and returns the p-quantile (p in [0,1]). The shared
/// percentile math for every bench binary — one definition so client-
/// side and JSON numbers can never disagree.
inline double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(samples->size()));
  if (idx >= samples->size()) idx = samples->size() - 1;
  return (*samples)[idx];
}

/// Machine-readable bench output: one row per (op, threads) series with
/// the latency percentiles and throughput, written as a JSON array so
/// CI can archive BENCH_*.json files as the perf trajectory.
///
/// Every report is stamped with its provenance — git SHA and build type
/// (injected by bench/CMakeLists.txt) — so an archived number can
/// always be traced to the commit and optimization level that produced
/// it; benchmarks add run configuration (e.g. the structural-index
/// mode) with AddMeta.
///
///   bench::JsonReport report("bench_server");
///   report.AddMeta("structural_index", "lazy");
///   report.AddRow("insert", threads, &samples_us, seconds);
///   ... report.WriteTo(json_path);
class JsonReport {
 public:
  explicit JsonReport(const std::string& benchmark)
      : benchmark_(benchmark) {
#if defined(LAXML_BENCH_GIT_SHA)
    AddMeta("git_sha", LAXML_BENCH_GIT_SHA);
#else
    AddMeta("git_sha", "unknown");
#endif
#if defined(LAXML_BENCH_BUILD_TYPE)
    AddMeta("build_type", LAXML_BENCH_BUILD_TYPE);
#else
    AddMeta("build_type", "unknown");
#endif
  }

  /// Adds a "key": "value" pair to the report's meta object (run
  /// configuration worth archiving next to the numbers).
  void AddMeta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, value);
  }

  /// Adds a latency series (sorts *samples_us). `extra` is an optional
  /// string of additional JSON fields, e.g. "\"zipf\": 0.9, ".
  void AddRow(const std::string& op, long threads,
              std::vector<double>* samples_us, double seconds,
              const std::string& extra = "") {
    double p50 = Percentile(samples_us, 0.50);
    double p95 = Percentile(samples_us, 0.95);
    double p99 = Percentile(samples_us, 0.99);
    double ops_per_sec =
        seconds > 0
            ? static_cast<double>(samples_us->size()) / seconds
            : 0;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"op\": \"%s\", \"threads\": %ld, \"count\": %zu, "
                  "%s\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
                  "\"ops_per_sec\": %.0f}",
                  op.c_str(), threads, samples_us->size(), extra.c_str(),
                  p50, p95, p99, ops_per_sec);
    rows_.push_back(buf);
  }

  /// Adds a throughput-only row (no latency samples, e.g. a scaling
  /// sweep measured as ops/s per thread count).
  void AddThroughputRow(const std::string& op, long threads,
                        uint64_t count, double seconds,
                        const std::string& extra = "") {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"op\": \"%s\", \"threads\": %ld, \"count\": %llu, "
                  "%s\"ops_per_sec\": %.0f}",
                  op.c_str(), threads,
                  static_cast<unsigned long long>(count), extra.c_str(),
                  seconds > 0 ? static_cast<double>(count) / seconds : 0);
    rows_.push_back(buf);
  }

  /// Adds a row of caller-formatted fields, e.g. "\"ranges\": 252"
  /// (cells that are not one latency series or one throughput).
  void AddFieldsRow(const std::string& op, const std::string& fields) {
    rows_.push_back("{\"op\": \"" + op + "\", " + fields + "}");
  }

  /// Writes {"benchmark": ..., "meta": {...}, "rows": [...]} to
  /// `path`. Returns false (with a stderr note) when the file cannot
  /// be written.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"meta\": {",
                 benchmark_.c_str());
    for (size_t i = 0; i < meta_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": \"%s\"", i > 0 ? ", " : "",
                   meta_[i].first.c_str(), meta_[i].second.c_str());
    }
    std::fprintf(f, "},\n  \"rows\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string benchmark_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> rows_;
};

/// On-disk size of a file in bytes (0 when it cannot be stat'ed).
inline uint64_t FileSizeBytes(const std::string& path) {
  struct ::stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

/// Stamps a report's meta with the store's storage footprint: effective
/// encoded bytes per stored token and the on-disk file size. Every
/// bench that opens a file-backed store should call this so
/// BENCH_*.json deltas make compression regressions visible. `suffix`
/// distinguishes multiple stores in one report ("_v1", "_v2", "").
template <typename StoreT>
void AddStorageMeta(JsonReport* report, const StoreT& store,
                    const std::string& db_path,
                    const std::string& suffix = "") {
  const uint64_t payload = store.range_manager().total_payload_bytes();
  const uint64_t tokens = store.range_manager().total_tokens();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f",
                tokens > 0 ? static_cast<double>(payload) / tokens : 0.0);
  report->AddMeta("bytes_per_token" + suffix, buf);
  report->AddMeta("file_size_bytes" + suffix,
                  std::to_string(FileSizeBytes(db_path)));
  report->AddMeta("dict_symbols" + suffix,
                  std::to_string(store.name_dictionary()->size()));
}

/// A temp database path removed on destruction (plus WAL sidecar).
class TempDb {
 public:
  explicit TempDb(const std::string& tag) {
    const char* dir = std::getenv("TMPDIR");
    path_ = std::string(dir != nullptr ? dir : "/tmp") + "/laxml_bench_" +
            tag + "_" + std::to_string(reinterpret_cast<uintptr_t>(this)) +
            ".db";
    Remove();
  }
  ~TempDb() { Remove(); }
  const std::string& path() const { return path_; }

 private:
  void Remove() {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }
  std::string path_;
};

}  // namespace bench
}  // namespace laxml

#endif  // LAXML_BENCH_BENCH_UTIL_H_
