#include "obs/metrics.h"

#include <cstdio>

namespace laxml {
namespace obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  const double rank = q * static_cast<double>(count - 1);
  uint64_t before = 0;
  for (size_t b = 0; b < kBucketCount; ++b) {
    const uint64_t n = buckets[b];
    if (n == 0) continue;
    if (static_cast<double>(before + n) > rank) {
      const auto lo = static_cast<double>(Histogram::BucketLower(b));
      // Width counts the integers the bucket can hold, so interpolation
      // over [lo, lo + width) spans the bucket exactly once.
      const double width =
          static_cast<double>(Histogram::BucketUpper(b) -
                              Histogram::BucketLower(b)) + 1.0;
      const double within = (rank - static_cast<double>(before)) /
                            static_cast<double>(n);
      double v = lo + width * within;
      if (v < static_cast<double>(min)) v = static_cast<double>(min);
      if (v > static_cast<double>(max)) v = static_cast<double>(max);
      return v;
    }
    before += n;
  }
  return static_cast<double>(max);
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, kRelaxed);
  count_.fetch_add(1, kRelaxed);
  sum_.fetch_add(value, kRelaxed);
  uint64_t prev = min_.load(kRelaxed);
  while (prev > value &&
         !min_.compare_exchange_weak(prev, value, kRelaxed)) {
  }
  prev = max_.load(kRelaxed);
  while (prev < value &&
         !max_.compare_exchange_weak(prev, value, kRelaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (size_t b = 0; b < kBucketCount; ++b) {
    snap.buckets[b] = buckets_[b].load(kRelaxed);
  }
  snap.count = count_.load(kRelaxed);
  snap.sum = sum_.load(kRelaxed);
  const uint64_t min = min_.load(kRelaxed);
  snap.min = min == UINT64_MAX ? 0 : min;
  snap.max = max_.load(kRelaxed);
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: metrics outlive every engine object, including
  // static destructors that may still record on worker-thread teardown.
  static auto* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  MutexLock lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace(name, histogram->snapshot());
  }
  return snap;
}

void SplitMetricName(const std::string& name, std::string* family,
                     std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *family = name;
    labels->clear();
    return;
  }
  *family = name.substr(0, brace);
  *labels = name.substr(brace);
  // Strip the surrounding braces; AppendPrometheusHistogram re-wraps.
  if (labels->size() >= 2 && labels->front() == '{' &&
      labels->back() == '}') {
    *labels = labels->substr(1, labels->size() - 2);
  }
}

std::string EscapePrometheusLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

/// "family{labels,extra}" or "family{extra}" or "family".
std::string JoinName(const std::string& family, const std::string& labels,
                     const std::string& extra) {
  std::string out = family;
  if (labels.empty() && extra.empty()) return out;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

/// One exposition family: its type and its sample lines, in order.
struct Family {
  const char* type = nullptr;
  std::string samples;
};

/// The sample buffer of `family`, typed by whichever series reaches it
/// first.
std::string& SamplesOf(std::map<std::string, Family>* families,
                       const std::string& family, const char* type) {
  Family& f = (*families)[family];
  if (f.type == nullptr) f.type = type;
  return f.samples;
}

void AppendHistogram(const std::string& name, const HistogramSnapshot& h,
                     std::map<std::string, Family>* families) {
  std::string family;
  std::string labels;
  SplitMetricName(name, &family, &labels);
  std::string& out = SamplesOf(families, family, "histogram");
  // Sparse exposition: one cumulative le line per occupied bucket, plus
  // the mandatory +Inf. Prometheus allows any monotone le subset.
  uint64_t cumulative = 0;
  for (size_t b = 0; b < HistogramSnapshot::kBucketCount; ++b) {
    if (h.buckets[b] == 0) continue;
    cumulative += h.buckets[b];
    out += JoinName(family + "_bucket", labels,
                    "le=\"" + std::to_string(Histogram::BucketUpper(b)) +
                        "\"") +
           " " + std::to_string(cumulative) + "\n";
  }
  out += JoinName(family + "_bucket", labels, "le=\"+Inf\"") + " " +
         std::to_string(h.count) + "\n";
  out += JoinName(family + "_sum", labels, "") + " " +
         std::to_string(h.sum) + "\n";
  out += JoinName(family + "_count", labels, "") + " " +
         std::to_string(h.count) + "\n";
  // Pre-computed quantiles as their own gauge families so dumb scrapers
  // (laxml_top, bench_server) need no bucket math.
  const struct {
    const char* suffix;
    double q;
  } quantiles[] = {{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}};
  for (const auto& [suffix, q] : quantiles) {
    SamplesOf(families, family + suffix, "gauge") +=
        JoinName(family + suffix, labels, "") + " " +
        FormatDouble(h.Percentile(q)) + "\n";
  }
}

template <typename Value>
void AppendScalars(const std::map<std::string, Value>& series,
                   const char* type,
                   std::map<std::string, Family>* families) {
  std::string family;
  std::string labels;
  for (const auto& [name, value] : series) {
    SplitMetricName(name, &family, &labels);
    SamplesOf(families, family, type) += JoinName(family, labels, "") +
                                         " " + std::to_string(value) + "\n";
  }
}

}  // namespace

std::string RenderPrometheus(const MetricsRegistry::Snapshot& snap) {
  // Gather by family first: the text format wants each family's samples
  // contiguous under one # TYPE line, and a histogram's labeled series
  // interleave with their quantile families in snapshot order.
  std::map<std::string, Family> families;
  AppendScalars(snap.counters, "counter", &families);
  AppendScalars(snap.gauges, "gauge", &families);
  for (const auto& [name, h] : snap.histograms) {
    AppendHistogram(name, h, &families);
  }
  std::string out;
  for (const auto& [name, f] : families) {
    out += "# TYPE " + name + " " + f.type + "\n";
    out += f.samples;
  }
  return out;
}

std::string RenderTable(const MetricsRegistry::Snapshot& snap) {
  std::string out;
  char line[256];
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : snap.counters) {
      std::snprintf(line, sizeof(line), "  %-52s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += line;
    }
    for (const auto& [name, value] : snap.gauges) {
      std::snprintf(line, sizeof(line), "  %-52s %12lld\n", name.c_str(),
                    static_cast<long long>(value));
      out += line;
    }
  }
  if (!snap.histograms.empty()) {
    out += "histograms:\n";
    for (const auto& [name, h] : snap.histograms) {
      std::snprintf(line, sizeof(line),
                    "  %-44s n %8llu  p50 %10.1f  p95 %10.1f  p99 %10.1f  "
                    "max %8llu\n",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    h.Percentile(0.50), h.Percentile(0.95),
                    h.Percentile(0.99),
                    static_cast<unsigned long long>(h.max));
      out += line;
    }
  }
  return out;
}

}  // namespace obs
}  // namespace laxml
