// Unit tests for the observability layer (src/obs): histogram bucket
// math and percentile estimation (exact values where the design
// guarantees them), registry get-or-create semantics and concurrent
// recording (a sanitizer hunting ground), both text renderings, the
// per-store collector, and the trace ring + binary dump codec.

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "common/varint.h"
#include "exposition_lint.h"
#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/store.h"
#include "test_util.h"

namespace laxml {
namespace obs {
namespace {

// --------------------------------------------------------------------
// Histogram bucket math

TEST(HistogramBuckets, IndexBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 63u);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 62), 63u);
  EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << 62) - 1), 62u);
}

TEST(HistogramBuckets, LowerUpperAgreeWithIndex) {
  for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLower(b)), b) << b;
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpper(b)), b) << b;
  }
  EXPECT_EQ(Histogram::BucketLower(0), 0u);
  EXPECT_EQ(Histogram::BucketUpper(0), 0u);
  EXPECT_EQ(Histogram::BucketLower(1), 1u);
  EXPECT_EQ(Histogram::BucketUpper(1), 1u);
  EXPECT_EQ(Histogram::BucketLower(10), 512u);
  EXPECT_EQ(Histogram::BucketUpper(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpper(63), UINT64_MAX);
}

// --------------------------------------------------------------------
// Percentile math — exact where the header promises exactness.

TEST(HistogramPercentile, EmptyIsZero) {
  Histogram h;
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST(HistogramPercentile, ConstantDistributionIsExact) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(300);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 300000u);
  EXPECT_EQ(s.min, 300u);
  EXPECT_EQ(s.max, 300u);
  // Min/max clamping pins every quantile of a constant distribution.
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 300.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 300.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.99), 300.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 300.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 300.0);
}

TEST(HistogramPercentile, UniformPowerOfTwoSpanIsExact) {
  // 0..1023 once each: a span aligned to the log2 buckets, where the
  // linear interpolation is exact. p50 at rank 0.5*1023 = 511.5.
  Histogram h;
  for (uint64_t v = 0; v < 1024; ++v) h.Record(v);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1024u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1023u);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 511.5);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 1023.0);
}

TEST(HistogramPercentile, TwoPointDistribution) {
  // 90 fast ops at 10us, 10 slow at 1000us: p50 must sit in the fast
  // bucket, p99 in the slow one — the tail mean/max hides.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  HistogramSnapshot s = h.snapshot();
  double p50 = s.Percentile(0.50);
  double p99 = s.Percentile(0.99);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 15.0);  // within the [8,15] bucket
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);  // slow bucket, clamped by max
  EXPECT_GT(p99, p50 * 10);
}

TEST(HistogramPercentile, QuantilesAreMonotone) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; v += 7) h.Record(v);
  HistogramSnapshot s = h.snapshot();
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    double v = s.Percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_LE(s.Percentile(1.0), static_cast<double>(s.max));
  EXPECT_GE(s.Percentile(0.0), static_cast<double>(s.min));
}

// --------------------------------------------------------------------
// Registry

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test_counter");
  Counter* b = registry.GetCounter("test_counter");
  EXPECT_EQ(a, b);
  a->Inc();
  EXPECT_EQ(b->value(), 1u);

  Histogram* h1 = registry.GetHistogram("test_hist");
  Histogram* h2 = registry.GetHistogram("test_hist");
  EXPECT_EQ(h1, h2);
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(h1));
}

TEST(MetricsRegistry, SnapshotSeesEverything) {
  MetricsRegistry registry;
  registry.GetCounter("c1")->Add(5);
  registry.GetHistogram("h1")->Record(100);
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("c1"), 5u);
  EXPECT_TRUE(snap.gauges.empty());  // gauges come from collectors only
  EXPECT_EQ(snap.histograms.at("h1").count, 1u);
}

// The concurrency hammer: registration races with recording races with
// snapshotting. Run under tsan (test labeled "sanitizer") this is the
// data-race regression net for the whole registry.
TEST(MetricsRegistry, ConcurrentRegisterRecordSnapshot) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Half the threads share metric names; half get their own —
      // exercising both the create and the lookup path.
      const std::string cname =
          t % 2 == 0 ? "shared_counter" : "counter_" + std::to_string(t);
      const std::string hname =
          t % 2 == 0 ? "shared_hist" : "hist_" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        registry.GetCounter(cname)->Inc();
        registry.GetHistogram(hname)->Record(static_cast<uint64_t>(i));
        if (i % 256 == 0) {
          MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
          EXPECT_FALSE(snap.counters.empty());
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("shared_counter"),
            static_cast<uint64_t>(kThreads / 2) * kIters);
  uint64_t total_hist = 0;
  for (const auto& [name, h] : snap.histograms) total_hist += h.count;
  EXPECT_EQ(total_hist, static_cast<uint64_t>(kThreads) * kIters);
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kIters; ++i) {
        h.Record(static_cast<uint64_t>(t * kIters + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, static_cast<uint64_t>(kThreads) * kIters - 1);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

// --------------------------------------------------------------------
// Renderings

TEST(Render, PrometheusExposition) {
  MetricsRegistry registry;
  registry.GetCounter("laxml_test_ops_total")->Add(3);
  Histogram* h = registry.GetHistogram("laxml_test_us{op=\"read\"}");
  h->Record(5);
  h->Record(500);
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  snap.gauges["laxml_test_level"] = 11;
  std::string text = RenderPrometheus(snap);

  EXPECT_NE(text.find("# TYPE laxml_test_ops_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_ops_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE laxml_test_level gauge\nlaxml_test_level 11\n"),
            std::string::npos);
  // Histogram: label block merged with le, cumulative +Inf, sum/count,
  // derived percentile gauges.
  EXPECT_NE(text.find("# TYPE laxml_test_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_us_bucket{op=\"read\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_us_sum{op=\"read\"} 505"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_us_count{op=\"read\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_us_p50{op=\"read\"}"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_us_p99{op=\"read\"}"),
            std::string::npos);

  // Every non-comment line is "name[{labels}] value".
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);  // ends with newline
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
  }
}

TEST(Render, TableListsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("laxml_c")->Add(9);
  registry.GetHistogram("laxml_h")->Record(77);
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  snap.gauges["laxml_g"] = 4;
  std::string table = RenderTable(snap);
  EXPECT_NE(table.find("laxml_c"), std::string::npos);
  EXPECT_NE(table.find("laxml_g"), std::string::npos);
  EXPECT_NE(table.find("laxml_h"), std::string::npos);
  EXPECT_NE(table.find("9"), std::string::npos);
}

TEST(Render, SplitMetricName) {
  std::string family, labels;
  SplitMetricName("laxml_x_us{op=\"read\"}", &family, &labels);
  EXPECT_EQ(family, "laxml_x_us");
  EXPECT_EQ(labels, "op=\"read\"");
  SplitMetricName("laxml_plain", &family, &labels);
  EXPECT_EQ(family, "laxml_plain");
  EXPECT_EQ(labels, "");
}

TEST(Render, EscapePrometheusLabelValue) {
  EXPECT_EQ(EscapePrometheusLabelValue("plain_value"), "plain_value");
  EXPECT_EQ(EscapePrometheusLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapePrometheusLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapePrometheusLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(EscapePrometheusLabelValue(""), "");
  // All three at once, in order.
  EXPECT_EQ(EscapePrometheusLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Render, EmptyHistogramExposition) {
  // A registered-but-never-recorded histogram must still render a
  // well-formed family: the mandatory +Inf bucket, zero sum/count, and
  // percentile gauges at 0 — not a truncated or absent family.
  MetricsRegistry registry;
  registry.GetHistogram("laxml_empty_us");
  std::string text = RenderPrometheus(registry.TakeSnapshot());
  EXPECT_NE(text.find("# TYPE laxml_empty_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_empty_us_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_empty_us_sum 0\n"), std::string::npos);
  EXPECT_NE(text.find("laxml_empty_us_count 0\n"), std::string::npos);
  EXPECT_NE(text.find("laxml_empty_us_p50 0\n"), std::string::npos);
}

TEST(Render, PrometheusRoundTripParse) {
  // The exposition must survive the same name/value split laxml_top
  // applies (rsplit on the last space): every value parses back to the
  // number that went in, including labeled series.
  MetricsRegistry registry;
  registry.GetCounter("laxml_rt_total")->Add(12345);
  registry.GetCounter("laxml_rt_labeled_total{op=\"x\"}")->Add(7);
  Histogram* h = registry.GetHistogram("laxml_rt_us{op=\"read\"}");
  for (int i = 0; i < 10; ++i) h->Record(64);
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  snap.gauges["laxml_rt_level"] = -3;
  std::string text = RenderPrometheus(snap);

  std::map<std::string, double> parsed;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* end = nullptr;
    double value = std::strtod(line.c_str() + space + 1, &end);
    ASSERT_TRUE(end != nullptr && *end == '\0') << line;
    parsed[line.substr(0, space)] = value;
  }
  EXPECT_DOUBLE_EQ(parsed.at("laxml_rt_total"), 12345.0);
  EXPECT_DOUBLE_EQ(parsed.at("laxml_rt_labeled_total{op=\"x\"}"), 7.0);
  EXPECT_DOUBLE_EQ(parsed.at("laxml_rt_level"), -3.0);
  EXPECT_DOUBLE_EQ(parsed.at("laxml_rt_us_count{op=\"read\"}"), 10.0);
  EXPECT_DOUBLE_EQ(parsed.at("laxml_rt_us_sum{op=\"read\"}"), 640.0);
  EXPECT_DOUBLE_EQ(parsed.at("laxml_rt_us_p50{op=\"read\"}"), 64.0);
}

TEST(Render, PrometheusFamiliesAreContiguous) {
  // Two labeled series of one histogram and an unlabeled sample beside
  // labeled ones: in snapshot order the quantile families and the
  // longer-named counter would interleave; the renderer groups them.
  MetricsRegistry registry;
  registry.GetHistogram("laxml_lint_us{op=\"a\"}")->Record(3);
  registry.GetHistogram("laxml_lint_us{op=\"b\"}")->Record(9);
  registry.GetCounter("laxml_lint_total")->Add(1);
  registry.GetCounter("laxml_lint_total_x_total")->Add(1);
  registry.GetCounter("laxml_lint_total{op=\"a\"}")->Add(2);
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  snap.gauges["laxml_lint_level"] = 5;
  const std::string text = RenderPrometheus(snap);
  const std::vector<std::string> errors = testing::LintExposition(text);
  EXPECT_TRUE(errors.empty()) << errors.front() << "\n" << text;
}

TEST(Render, LintCatchesBrokenExpositions) {
  EXPECT_FALSE(testing::LintExposition("laxml_a_total 1\n").empty());
  EXPECT_FALSE(
      testing::LintExposition("# TYPE laxml_a_total gauge\nlaxml_a_total 1\n")
          .empty());
  EXPECT_FALSE(
      testing::LintExposition("# TYPE laxml_a counter\nlaxml_a 1\n").empty());
  EXPECT_FALSE(testing::LintExposition("# TYPE laxml_a_us histogram\n"
                                       "# TYPE laxml_b_total counter\n"
                                       "laxml_a_us_count{op=\"x\"} 1\n"
                                       "laxml_b_total 1\n"
                                       "laxml_a_us_count{op=\"y\"} 1\n")
                   .empty());
}

// --------------------------------------------------------------------
// Engine collector

TEST(EngineMetrics, TwoStoresScrapeIndependently) {
  // Each store counts its own events in its own stats structs, so a
  // scrape of B shows none of A's reads.
  ASSERT_OK_AND_ASSIGN(auto a, Store::OpenInMemory(StoreOptions{}));
  ASSERT_OK_AND_ASSIGN(auto b, Store::OpenInMemory(StoreOptions{}));
  ASSERT_OK_AND_ASSIGN(NodeId root, a->LoadXml("<r><x>1</x><y>2</y></r>"));
  ASSERT_LAXML_OK(b->LoadXml("<r><z/></r>").status());
  for (NodeId id = root; id < root + 3; ++id) {
    ASSERT_LAXML_OK(a->Read(id).status());
  }

  MetricsRegistry::Snapshot snap_a;
  MetricsRegistry::Snapshot snap_b;
  CollectStoreMetrics(*a, &snap_a);
  CollectStoreMetrics(*b, &snap_b);
  EXPECT_GT(snap_a.counters.at("laxml_partial_lookups_total"), 0u);
  EXPECT_EQ(snap_b.counters.at("laxml_partial_lookups_total"), 0u);
  EXPECT_EQ(snap_a.counters.at("laxml_store_reads_by_id_total"), 3u);
  EXPECT_EQ(snap_b.counters.at("laxml_store_reads_by_id_total"), 0u);
  EXPECT_EQ(snap_b.gauges.at("laxml_store_poisoned"), 0);
  const std::vector<std::string> errors =
      testing::LintExposition(RenderPrometheus(snap_a));
  EXPECT_TRUE(errors.empty()) << errors.front();
}

// --------------------------------------------------------------------
// Trace ring + dump codec

TEST(Trace, RingRecordsAndWraps) {
  TraceRing ring(4, /*tid=*/1);
  ring.Record("a", 10, 1);
  ring.Record("b", 20, 2);
  TraceDump dump;
  ring.Drain(&dump);
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_EQ(dump.names[dump.events[0].name_id], "a");
  EXPECT_EQ(dump.events[0].start_us, 10u);
  EXPECT_EQ(dump.events[1].dur_us, 2u);

  // Overflow the ring: only the newest 4 survive, oldest first.
  for (uint64_t i = 0; i < 10; ++i) ring.Record("x", 100 + i, 1);
  TraceDump dump2;
  ring.Drain(&dump2);
  ASSERT_EQ(dump2.events.size(), 4u);
  EXPECT_EQ(dump2.events.front().start_us, 106u);
  EXPECT_EQ(dump2.events.back().start_us, 109u);
}

TEST(Trace, BinaryRoundTrip) {
  TraceDump dump;
  dump.names = {"wal_fsync", "range_split"};
  dump.events.push_back({1, 0, 1000, 50});
  dump.events.push_back({2, 1, 2000, 75});
  std::vector<uint8_t> encoded = EncodeTraceDump(dump);

  auto decoded = DecodeTraceDump(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->names.size(), 2u);
  EXPECT_EQ(decoded->names[1], "range_split");
  ASSERT_EQ(decoded->events.size(), 2u);
  EXPECT_EQ(decoded->events[0].tid, 1u);
  EXPECT_EQ(decoded->events[1].start_us, 2000u);
  EXPECT_EQ(decoded->events[1].dur_us, 75u);
}

TEST(Trace, DecodeRejectsMalformedInput) {
  TraceDump dump;
  dump.names = {"n"};
  dump.events.push_back({1, 0, 5, 5});
  std::vector<uint8_t> good = EncodeTraceDump(dump);

  // Truncations at every length never crash; most fail, and any that
  // "succeed" must at least be the degenerate empty prefix — but the
  // header alone is 8 bytes, so anything shorter must fail.
  for (size_t len = 0; len < good.size(); ++len) {
    auto r = DecodeTraceDump(good.data(), len);
    if (len < 8) {
      EXPECT_FALSE(r.ok()) << len;
    }
  }

  // Bad magic.
  std::vector<uint8_t> bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(DecodeTraceDump(bad.data(), bad.size()).ok());

  // Fabricated huge name count.
  std::vector<uint8_t> huge(good.begin(), good.begin() + 8);
  for (int i = 0; i < 9; ++i) huge.push_back(0xFF);
  huge.push_back(0x01);
  EXPECT_FALSE(DecodeTraceDump(huge.data(), huge.size()).ok());

  // Event referencing a name_id out of range.
  TraceDump oob;
  oob.names = {"only"};
  oob.events.push_back({1, 5, 1, 1});  // name_id 5 > names.size()
  std::vector<uint8_t> enc = EncodeTraceDump(oob);
  EXPECT_FALSE(DecodeTraceDump(enc.data(), enc.size()).ok());
}

TEST(Trace, ChromeJsonHasEvents) {
  TraceDump dump;
  dump.names = {"span \"quoted\""};
  dump.events.push_back({3, 0, 123, 45});
  std::string json = dump.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":123"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":45"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // escaped
}

TEST(Trace, TraceIdRoundTrip) {
  TraceDump dump;
  dump.names = {"traced_span"};
  dump.events.push_back({1, 0, 1000, 50, 42});
  dump.events.push_back({1, 0, 2000, 10, 0});  // unattributed
  std::vector<uint8_t> encoded = EncodeTraceDump(dump);
  auto decoded = DecodeTraceDump(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->events.size(), 2u);
  EXPECT_EQ(decoded->events[0].trace_id, 42u);
  EXPECT_EQ(decoded->events[1].trace_id, 0u);
}

TEST(Trace, DecodesVersion1WithoutTraceIds) {
  // Hand-build a version-1 dump (four varints per event, no trace_id):
  // the decoder must accept it and default every trace id to 0.
  std::vector<uint8_t> v1;
  auto fixed32 = [&](uint32_t v) {
    v1.push_back(static_cast<uint8_t>(v));
    v1.push_back(static_cast<uint8_t>(v >> 8));
    v1.push_back(static_cast<uint8_t>(v >> 16));
    v1.push_back(static_cast<uint8_t>(v >> 24));
  };
  fixed32(0x5458414c);  // "LAXT"
  fixed32(1);           // version 1
  PutVarint64(&v1, 1);  // one name
  PutVarint64(&v1, 3);
  v1.push_back('o');
  v1.push_back('l');
  v1.push_back('d');
  PutVarint64(&v1, 2);  // two events, four varints each
  for (uint64_t start : {100u, 200u}) {
    PutVarint64(&v1, 7);      // tid
    PutVarint64(&v1, 0);      // name_id
    PutVarint64(&v1, start);  // start_us
    PutVarint64(&v1, 5);      // dur_us
  }
  auto decoded = DecodeTraceDump(v1.data(), v1.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->events.size(), 2u);
  EXPECT_EQ(decoded->names[0], "old");
  EXPECT_EQ(decoded->events[0].start_us, 100u);
  EXPECT_EQ(decoded->events[0].trace_id, 0u);
  EXPECT_EQ(decoded->events[1].trace_id, 0u);

  // Truncating the trailing bytes of a v1 dump still fails cleanly.
  auto truncated = DecodeTraceDump(v1.data(), v1.size() - 2);
  EXPECT_FALSE(truncated.ok());
}

TEST(Trace, MergeTraceDumpsKeepsLanesAndTraceIds) {
  // Two dumps (think: client process + server process) using the same
  // tid numbers. The merge must keep their thread lanes distinct while
  // trace ids pass through untouched as the cross-dump join key.
  TraceDump client;
  client.names = {"CLIENT_CALL"};
  client.events.push_back({1, 0, 500, 80, 99});
  TraceDump server;
  server.names = {"XPATH", "CLIENT_CALL"};
  server.events.push_back({1, 0, 520, 30, 99});
  server.events.push_back({2, 1, 100, 10, 0});

  TraceDump merged = MergeTraceDumps({client, server});
  ASSERT_EQ(merged.events.size(), 3u);
  // Sorted by start_us.
  EXPECT_EQ(merged.events[0].start_us, 100u);
  EXPECT_EQ(merged.events[1].start_us, 500u);
  EXPECT_EQ(merged.events[2].start_us, 520u);
  // The client's tid-1 and the server's tid-1 land in different lanes.
  EXPECT_NE(merged.events[1].tid, merged.events[2].tid);
  // Trace ids survive, and the duplicate name re-interned cleanly.
  EXPECT_EQ(merged.events[1].trace_id, 99u);
  EXPECT_EQ(merged.events[2].trace_id, 99u);
  EXPECT_EQ(merged.names[merged.events[1].name_id], "CLIENT_CALL");
  EXPECT_EQ(merged.names[merged.events[2].name_id], "XPATH");
  // Both spans of trace 99 are recoverable by filtering — the
  // laxml_trace --trace-id path.
  size_t stitched = 0;
  for (const TraceEvent& ev : merged.events) {
    if (ev.trace_id == 99) ++stitched;
  }
  EXPECT_EQ(stitched, 2u);
}

#if !defined(LAXML_METRICS_DISABLED)
TEST(Trace, RingOverflowBumpsDroppedCounter) {
  Counter* dropped = MetricsRegistry::Global().GetCounter(
      "laxml_trace_ring_dropped_total");
  const uint64_t before = dropped->value();
  TraceRing ring(2, /*tid=*/9);
  for (int i = 0; i < 5; ++i) {
    ring.Record("overflow", static_cast<uint64_t>(i), 1);
  }
  // Capacity 2, five records: three slots were overwritten undrained.
  EXPECT_EQ(dropped->value() - before, 3u);
}
#endif  // !defined(LAXML_METRICS_DISABLED)

TEST(Trace, ChromeJsonCarriesTraceIdArgs) {
  TraceDump dump;
  dump.names = {"span"};
  dump.events.push_back({1, 0, 10, 5, 77});
  dump.events.push_back({1, 0, 20, 5, 0});
  std::string json = dump.ToChromeJson();
  EXPECT_NE(json.find("\"args\":{\"trace_id\":77}"), std::string::npos);
  // The unattributed event carries no args block: exactly one.
  size_t first = json.find("\"args\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(json.find("\"args\"", first + 1), std::string::npos);
}

TEST(Trace, ScopedSpanLandsInGlobalTracer) {
  { LAXML_TRACE_SPAN("obs_test_span"); }
  TraceDump dump = Tracer::Global().Collect();
#if !defined(LAXML_TRACING_DISABLED)
  bool found = false;
  for (const TraceEvent& e : dump.events) {
    if (dump.names[e.name_id] == "obs_test_span") found = true;
  }
  EXPECT_TRUE(found);
#else
  (void)dump;
#endif
}

}  // namespace
}  // namespace obs
}  // namespace laxml
