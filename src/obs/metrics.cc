#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace laxml {
namespace obs {

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

HistogramSnapshot HistogramSnapshot::Since(
    const HistogramSnapshot& earlier) const {
  if (count < earlier.count) return *this;
  HistogramSnapshot window = *this;
  for (size_t b = 0; b < kBucketCount; ++b) {
    if (buckets[b] < earlier.buckets[b]) return *this;
    window.buckets[b] -= earlier.buckets[b];
  }
  window.count -= earlier.count;
  window.sum -= earlier.sum;
  return window;
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
  // Strip the surrounding braces; JoinName re-wraps.
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

/// Parses all of `text` as an integer into *out.
template <typename Int>
bool ParseInt(std::string_view text, Int* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

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

std::string RenderPrometheus(const Snapshot& snap) {
  // Gather by family first: the text format wants each family's samples
  // contiguous under one # TYPE line, and in snapshot order a family's
  // labeled series interleave with longer-named families.
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

Snapshot ParsePrometheus(std::string_view text) {
  Snapshot snap;
  std::string type;  // RenderPrometheus keeps each family behind its type
  std::string family;
  std::string labels;
  while (!text.empty()) {
    const std::string_view line = text.substr(0, text.find('\n'));
    text.remove_prefix(std::min(line.size() + 1, text.size()));
    const size_t space = line.rfind(' ');
    if (line.starts_with("# TYPE ")) {
      type = line.substr(space + 1);
      continue;
    }
    if (line.starts_with('#') || space == std::string_view::npos) continue;
    const std::string series(line.substr(0, space));
    const std::string_view value = line.substr(space + 1);
    uint64_t u = 0;
    int64_t i = 0;
    if (type == "gauge" && ParseInt(value, &i)) {
      snap.gauges[series] = i;
    } else if (type == "counter" && ParseInt(value, &u)) {
      snap.counters[series] = u;
    } else if (type == "histogram" && ParseInt(value, &u)) {
      // family_{bucket,sum,count}{labels}, a bucket's le="upper" last.
      SplitMetricName(series, &family, &labels);
      const size_t cut = family.rfind('_');
      const std::string_view part =
          cut == std::string::npos ? "" : std::string_view(family).substr(cut);
      uint64_t upper = 0;
      if (const size_t le = labels.rfind("le=\""); le != std::string::npos) {
        std::string_view quoted = std::string_view(labels).substr(le + 4);
        quoted.remove_suffix(quoted.empty() ? 0 : 1);  // the closing quote
        // Skips the +Inf line too: it repeats _count.
        if (part != "_bucket" || !ParseInt(quoted, &upper)) continue;
        labels.resize(le > 0 ? le - 1 : 0);  // drop le and its comma
      } else if (part != "_sum" && part != "_count") {
        continue;
      }
      HistogramSnapshot& h =
          snap.histograms[JoinName(family.substr(0, cut), labels, "")];
      if (part == "_sum") {
        h.sum = u;
      } else if (part == "_count") {
        h.count = u;
      } else {
        h.buckets[Histogram::BucketIndex(upper)] = u;  // cumulative here
      }
    }
  }
  // Un-cumulate the occupied buckets; min and max become their bounds.
  for (auto& [name, h] : snap.histograms) {
    uint64_t below = 0;
    for (size_t b = 0; b < HistogramSnapshot::kBucketCount; ++b) {
      if (h.buckets[b] == 0) continue;
      const uint64_t cumulative = h.buckets[b];
      h.buckets[b] = cumulative > below ? cumulative - below : 0;
      if (below == 0) h.min = Histogram::BucketLower(b);
      h.max = Histogram::BucketUpper(b);
      below = std::max(below, cumulative);
    }
  }
  return snap;
}

std::string RenderTable(const Snapshot& snap) {
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
