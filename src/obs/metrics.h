// The metrics registry: the process-wide counters and fixed-bucket log2
// latency histograms that have no per-instance stats struct behind
// them, and the Snapshot type every kGetMetrics scrape is rendered
// from (net::OpCode::kGetMetrics).
//
// An event is counted in exactly one place. Events an engine object
// already counts in its own stats struct (Partial Index hits, range
// splits, WAL syncs, latch acquisitions, buffer-pool hits, ...) stay
// there; obs/engine_metrics.h copies those structs into a scrape's
// Snapshot as typed families, one Store at a time. The registry keeps
// the latency histograms and the few counters with no struct:
// laxml_io_errors_total{op}, laxml_trace_ring_dropped_total,
// laxml_server_slow_ops_total and laxml_bulk_load_bytes_total. Gauges
// (levels) exist only in a Snapshot.
//
// Design goals, in order:
//
//   1. O(1), lock-free recording. A Counter is one relaxed fetch_add; a
//      Histogram::Record is a bit_width, two fetch_adds and a CAS-max.
//      Registration (the name -> metric lookup) takes a mutex, so hot
//      paths resolve their metric once into a function-local static
//      pointer (the LAXML_COUNTER_INC / LAXML_HISTOGRAM_RECORD macros
//      do this).
//   2. Server-side percentiles. The paper's argument is quantitative
//      (locate-scan tokens vs eager index maintenance), and mean/max
//      aggregates hide exactly the tail the Partial Index exists to
//      amortize. Log2 buckets give p50/p95/p99 with 64 words per
//      histogram and no sample retention.
//   3. Compile-out. -DLAXML_METRICS=OFF turns every macro below into a
//      no-op so the overhead of the instrumentation itself is
//      measurable (bench_server with and without). The stats structs
//      still count, so a scrape still shows every struct-backed family.
//
// Naming follows Prometheus conventions: counters end in _total,
// microsecond histograms in _us; a metric name may carry a literal
// label block — GetHistogram("laxml_store_op_us{op=\"insert\"}") —
// which the Prometheus renderer folds into the family's exposition.

#ifndef LAXML_OBS_METRICS_H_
#define LAXML_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace laxml {
namespace obs {

/// A monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Inc() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Immutable copy of a histogram, with the percentile math.
struct HistogramSnapshot {
  static constexpr size_t kBucketCount = 64;

  uint64_t buckets[kBucketCount] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< Meaningful only when count > 0.
  uint64_t max = 0;

  double Mean() const {
    return count == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
  /// the log2 bucket holding the fractional rank q*(count-1), clamped
  /// to the observed [min, max]. Exact for distributions uniform over
  /// a power-of-two-aligned span and for constant distributions; off by
  /// at most one bucket width (2x) in the worst case.
  double Percentile(double q) const;
};

/// Fixed-bucket log2 histogram. Bucket 0 holds the value 0; bucket b in
/// [1, 62] holds [2^(b-1), 2^b - 1]; bucket 63 holds everything from
/// 2^62 up. Recording is wait-free (no CAS loop on the buckets; only
/// the min/max trackers use CAS).
class Histogram {
 public:
  static constexpr size_t kBucketCount = HistogramSnapshot::kBucketCount;

  /// Index of the bucket `v` lands in.
  static size_t BucketIndex(uint64_t v) {
    if (v == 0) return 0;
    const auto width = static_cast<size_t>(std::bit_width(v));
    return width < kBucketCount ? width : kBucketCount - 1;
  }
  /// Smallest value bucket `b` can hold.
  static uint64_t BucketLower(size_t b) {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }
  /// Largest value bucket `b` can hold.
  static uint64_t BucketUpper(size_t b) {
    if (b == 0) return 0;
    if (b >= kBucketCount - 1) return UINT64_MAX;
    return (uint64_t{1} << b) - 1;
  }

  void Record(uint64_t value);
  HistogramSnapshot snapshot() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

  std::atomic<uint64_t> buckets_[kBucketCount] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Name -> metric table. Get* calls are get-or-create and return a
/// pointer that stays valid for the registry's lifetime (metrics are
/// never deleted), so call sites may cache it. The process-wide
/// instance is Global(); tests can instantiate their own.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// One scrape's worth of series, keyed by "family{labels}". The
  /// registry's TakeSnapshot fills counters and histograms; scrape-time
  /// collectors (obs/engine_metrics.h, the server's op table) add their
  /// own counters and the gauges, which live nowhere else.
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot TakeSnapshot() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      LAXML_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      LAXML_GUARDED_BY(mu_);
};

/// Human-readable table (laxml_cli metrics).
std::string RenderTable(const MetricsRegistry::Snapshot& snap);

/// Prometheus text exposition, one contiguous block per family behind
/// a single # TYPE line: counters and gauges verbatim, histograms as
/// cumulative _bucket{le=...} series plus _sum/_count, each histogram
/// family followed by derived _p50/_p95/_p99 gauge families.
std::string RenderPrometheus(const MetricsRegistry::Snapshot& snap);

/// Splits "family{labels}" into its family and label parts ("" when the
/// name carries no label block).
void SplitMetricName(const std::string& name, std::string* family,
                     std::string* labels);

/// Escapes `value` for use inside a Prometheus label value: backslash,
/// double quote and newline become \\, \" and \n (the text-format
/// escaping rules). Use when building a label block from data that is
/// not a known-safe identifier.
std::string EscapePrometheusLabelValue(std::string_view value);

/// Steady-clock microseconds — the timebase of every latency histogram.
inline uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII: records the enclosing scope's wall time into a histogram.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* h) : h_(h), start_(NowMicros()) {}
  ~ScopedHistogramTimer() { h_->Record(NowMicros() - start_); }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram* h_;
  uint64_t start_;
};

}  // namespace obs
}  // namespace laxml

// ---------------------------------------------------------------------
// Hot-path instrumentation macros. Each site resolves its metric once
// (function-local static) and then records lock-free. Compiled to
// nothing when the build sets LAXML_METRICS_DISABLED (-DLAXML_METRICS=OFF).

#if !defined(LAXML_METRICS_DISABLED)

#define LAXML_COUNTER_ADD(name, n)                                \
  do {                                                            \
    static ::laxml::obs::Counter* const laxml_metrics_counter =   \
        ::laxml::obs::MetricsRegistry::Global().GetCounter(name); \
    laxml_metrics_counter->Add(n);                                \
  } while (0)

#define LAXML_HISTOGRAM_RECORD(name, value)                           \
  do {                                                                \
    static ::laxml::obs::Histogram* const laxml_metrics_histogram =   \
        ::laxml::obs::MetricsRegistry::Global().GetHistogram(name);   \
    laxml_metrics_histogram->Record(value);                           \
  } while (0)

#define LAXML_METRICS_CONCAT_INNER(a, b) a##b
#define LAXML_METRICS_CONCAT(a, b) LAXML_METRICS_CONCAT_INNER(a, b)

/// Times the rest of the enclosing scope into the named histogram.
#define LAXML_SCOPED_LATENCY_US(name)                                 \
  static ::laxml::obs::Histogram* const LAXML_METRICS_CONCAT(         \
      laxml_latency_hist_, __LINE__) =                                \
      ::laxml::obs::MetricsRegistry::Global().GetHistogram(name);     \
  ::laxml::obs::ScopedHistogramTimer LAXML_METRICS_CONCAT(            \
      laxml_latency_timer_,                                           \
      __LINE__)(LAXML_METRICS_CONCAT(laxml_latency_hist_, __LINE__))

#else

#define LAXML_COUNTER_ADD(name, n) \
  do {                             \
  } while (0)
#define LAXML_HISTOGRAM_RECORD(name, value) \
  do {                                      \
  } while (0)
#define LAXML_SCOPED_LATENCY_US(name) \
  do {                                \
  } while (0)

#endif  // !defined(LAXML_METRICS_DISABLED)

#define LAXML_COUNTER_INC(name) LAXML_COUNTER_ADD(name, 1)

#endif  // LAXML_OBS_METRICS_H_
