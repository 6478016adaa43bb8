// The metrics toolkit: the log2 latency Histogram that stats structs
// record into, the Snapshot every kGetMetrics scrape is rendered from,
// its two renderings, and the parser that reads an exposition back.
//
// There is no process-wide registry: each event is counted in the
// stats struct of the instance that owns it (DESIGN.md §11 lists the
// owners), and scrape-time collectors copy one instance at a time into
// a Snapshot, so two stores or servers in one process scrape
// independently. Gauges (levels) exist only in a Snapshot.
//
// A Histogram::Record is a bit_width, two fetch_adds and a CAS-max;
// log2 buckets give percentiles with no sample retention. Percentiles,
// not mean/max: the paper's argument is quantitative, and an average
// hides exactly the tail the Partial Index exists to amortize. The
// exposition carries buckets, not quantiles: consumers parse them back
// (ParsePrometheus) and ask HistogramSnapshot, so the quantile math
// lives here alone.
//
// Names follow Prometheus conventions (counters end in _total,
// microsecond histograms in _us); a Snapshot key may carry a label
// block ("laxml_store_op_us{op=\"insert\"}"), which the renderer folds
// into the family's exposition.

#ifndef LAXML_OBS_METRICS_H_
#define LAXML_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace laxml {
namespace obs {

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

  /// The values recorded since `earlier`, an older snapshot of the same
  /// histogram. Min and max stay this snapshot's: they bound the new
  /// values, so a quantile strictly inside (0, 1) stays in the window's
  /// buckets. A histogram that went backwards (a restart) is returned
  /// whole.
  HistogramSnapshot Since(const HistogramSnapshot& earlier) const;
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

/// One scrape's worth of series, keyed by "family{labels}".
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Human-readable table (laxml_cli metrics).
std::string RenderTable(const Snapshot& snap);

/// Prometheus text exposition, one contiguous block per family behind
/// a single # TYPE line: counters and gauges verbatim, histograms as
/// cumulative _bucket{le=...} series (one per occupied bucket, le =
/// Histogram::BucketUpper, plus +Inf) and _sum/_count.
std::string RenderPrometheus(const Snapshot& snap);

/// Reads a RenderPrometheus exposition back: everything exactly (each
/// le maps back to its log2 bucket) but histogram min and max, which
/// the exposition lacks and the parse widens to the occupied buckets.
Snapshot ParsePrometheus(std::string_view text);

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

#endif  // LAXML_OBS_METRICS_H_
