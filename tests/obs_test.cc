// Unit tests for the observability layer (src/obs): histogram bucket
// math and percentile estimation (exact values where the design
// guarantees them), concurrent recording (a sanitizer hunting ground),
// both text renderings and the exposition parser, the per-store
// collector, and the trace ring + binary dump codec.

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "common/varint.h"
#include "exposition_lint.h"
#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/faulty_file.h"
#include "store/store.h"
#include "test_util.h"
#include "wal/wal.h"

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
// Histogram snapshots

HistogramSnapshot Recorded(std::initializer_list<uint64_t> values) {
  Histogram h;
  for (uint64_t v : values) h.Record(v);
  return h.snapshot();
}

/// The log2 bucket a (possibly fractional) Percentile result lies in.
size_t BucketOf(double v) {
  return v >= 0x1p62 ? Histogram::kBucketCount - 1
                     : Histogram::BucketIndex(static_cast<uint64_t>(v));
}

TEST(HistogramSince, WindowHoldsOnlyTheNewValues) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(10);
  const HistogramSnapshot before = h.snapshot();
  for (int i = 0; i < 4; ++i) h.Record(5000);
  const HistogramSnapshot window = h.snapshot().Since(before);
  EXPECT_EQ(window.count, 4u);
  EXPECT_EQ(window.sum, 20000u);
  EXPECT_EQ(window.buckets[Histogram::BucketIndex(10)], 0u);
  // The lifetime p50 still sits at 10; the window's quantiles are all in
  // 5000's bucket, held there by the lifetime max.
  EXPECT_EQ(BucketOf(h.snapshot().Percentile(0.5)), BucketOf(10));
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT_EQ(BucketOf(window.Percentile(q)), BucketOf(5000)) << q;
  }
  EXPECT_EQ(window.max, 5000u);

  // No new values: an empty window. A histogram that went backwards
  // (a restarted process) is its own window.
  EXPECT_EQ(h.snapshot().Since(h.snapshot()).count, 0u);
  EXPECT_EQ(before.Since(h.snapshot()).count, before.count);
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
  Snapshot snap;
  snap.counters["laxml_test_ops_total"] = 3;
  snap.histograms["laxml_test_us{op=\"read\"}"] = Recorded({5, 500});
  snap.gauges["laxml_test_level"] = 11;
  std::string text = RenderPrometheus(snap);

  EXPECT_NE(text.find("# TYPE laxml_test_ops_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_ops_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE laxml_test_level gauge\nlaxml_test_level 11\n"),
            std::string::npos);
  // Histogram: label block merged with le, one cumulative line per
  // occupied bucket plus +Inf, sum/count, and no derived quantile
  // families (consumers take quantiles from the buckets).
  EXPECT_NE(text.find("# TYPE laxml_test_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_us_bucket{op=\"read\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_us_sum{op=\"read\"} 505"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_us_count{op=\"read\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_us_bucket{op=\"read\",le=\"7\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_test_us_bucket{op=\"read\",le=\"511\"} 2\n"),
            std::string::npos);
  for (const char* suffix : {"_p50", "_p95", "_p99"}) {
    EXPECT_EQ(text.find(suffix), std::string::npos) << suffix;
  }

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
  Snapshot snap;
  snap.counters["laxml_c"] = 9;
  snap.histograms["laxml_h"] = Recorded({77});
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
  // An empty histogram must still render a well-formed family: the
  // mandatory +Inf bucket and zero sum/count — not a truncated or
  // absent family.
  Snapshot snap;
  snap.histograms["laxml_empty_us"] = HistogramSnapshot{};
  std::string text = RenderPrometheus(snap);
  EXPECT_NE(text.find("# TYPE laxml_empty_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_empty_us_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("laxml_empty_us_sum 0\n"), std::string::npos);
  EXPECT_NE(text.find("laxml_empty_us_count 0\n"), std::string::npos);
  EXPECT_EQ(text.find("laxml_empty_us_bucket{le=\"0\"}"), std::string::npos);
}

TEST(Render, PrometheusRoundTripParse) {
  // ParsePrometheus reads back everything the exposition carries:
  // counters, gauges, and each histogram's buckets, sum and count, under
  // the names they were rendered with. Min and max are not carried; the
  // parse widens them to the occupied buckets' bounds, so a quantile
  // changes only where the original's [min, max] clamp binds, and then
  // stays inside its log2 bucket.
  Snapshot snap;
  snap.counters["laxml_rt_total"] = 12345;
  snap.counters["laxml_rt_labeled_total{op=\"x\"}"] = 7;
  snap.gauges["laxml_rt_level"] = -3;
  snap.histograms["laxml_rt_empty_us"] = HistogramSnapshot{};
  snap.histograms["laxml_rt_us{op=\"read\"}"] =
      Recorded({64, 64, 64, 64, 64, 64, 64, 64, 64, 64});
  snap.histograms["laxml_rt_us{op=\"write\"}"] =
      Recorded({0, 1, 3, 3, 90, 100, 5000, uint64_t{1} << 40,
                (uint64_t{1} << 62) + 5});
  Histogram uniform;
  for (uint64_t v = 0; v < 1024; ++v) uniform.Record(v);
  snap.histograms["laxml_rt_uniform_us"] = uniform.snapshot();
  const std::string text = RenderPrometheus(snap);
  EXPECT_NE(text.find("laxml_rt_us_bucket{op=\"read\",le=\"+Inf\"} 10\n"),
            std::string::npos);

  // Lines the parser cannot read (a scrape cut short, a foreign family)
  // are skipped without touching what it has read.
  const Snapshot parsed = ParsePrometheus(
      text + "laxml_rt_total\n# TYPE x_us histogram\nx_us_bucket{le=\" 1\n"
             "x_us_bucket{le=\"oops\"} 2\nnounderscore 3\n# TYPE y gauge\n"
             "y 1.5\nlaxml_rt_us_count{op=\"read\"");
  EXPECT_EQ(parsed.counters, snap.counters);
  EXPECT_EQ(parsed.gauges, snap.gauges);
  ASSERT_EQ(parsed.histograms.size(), snap.histograms.size());
  for (const auto& [name, want] : snap.histograms) {
    SCOPED_TRACE(name);
    ASSERT_EQ(parsed.histograms.count(name), 1u);
    const HistogramSnapshot& got = parsed.histograms.at(name);
    for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
      EXPECT_EQ(got.buckets[b], want.buckets[b]) << "bucket " << b;
    }
    EXPECT_EQ(got.sum, want.sum);
    EXPECT_EQ(got.count, want.count);
    for (int i = 0; i <= 100; ++i) {
      const double q = i / 100.0;
      const double w = want.Percentile(q);
      const double g = got.Percentile(q);
      if (w > static_cast<double>(want.min) &&
          w < static_cast<double>(want.max)) {
        EXPECT_DOUBLE_EQ(g, w) << "q=" << q;
      } else {
        EXPECT_EQ(BucketOf(g), BucketOf(w)) << "q=" << q;
      }
    }
  }
}

TEST(Render, PrometheusFamiliesAreContiguous) {
  // Two labeled series of one histogram and an unlabeled sample beside
  // labeled ones: in snapshot order the longer-named counter would
  // interleave with the labeled series; the renderer groups them.
  Snapshot snap;
  snap.histograms["laxml_lint_us{op=\"a\"}"] = Recorded({3});
  snap.histograms["laxml_lint_us{op=\"b\"}"] = Recorded({9});
  snap.counters["laxml_lint_total"] = 1;
  snap.counters["laxml_lint_total_x_total"] = 1;
  snap.counters["laxml_lint_total{op=\"a\"}"] = 2;
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
  // Each store counts its own events in its own stats structs, latency
  // histograms and I/O-error counts included, so a scrape of B shows
  // none of A's reads.
  ASSERT_OK_AND_ASSIGN(auto a, Store::OpenInMemory(StoreOptions{}));
  ASSERT_OK_AND_ASSIGN(auto b, Store::OpenInMemory(StoreOptions{}));
  ASSERT_OK_AND_ASSIGN(NodeId root, a->LoadXml("<r><x>1</x><y>2</y></r>"));
  ASSERT_LAXML_OK(b->LoadXml("<r><z/></r>").status());
  for (NodeId id = root; id < root + 3; ++id) {
    ASSERT_LAXML_OK(a->Read(id).status());
  }

  Snapshot snap_a;
  Snapshot snap_b;
  CollectStoreMetrics(*a, &snap_a);
  CollectStoreMetrics(*b, &snap_b);
  EXPECT_GT(snap_a.counters.at("laxml_partial_lookups_total"), 0u);
  EXPECT_EQ(snap_b.counters.at("laxml_partial_lookups_total"), 0u);
  EXPECT_EQ(snap_a.counters.at("laxml_store_reads_by_id_total"), 3u);
  EXPECT_EQ(snap_b.counters.at("laxml_store_reads_by_id_total"), 0u);
  EXPECT_EQ(snap_b.gauges.at("laxml_store_poisoned"), 0);
  const std::string read_us = "laxml_store_op_us{op=\"read_by_id\"}";
  ASSERT_EQ(snap_a.histograms.count(read_us), 1u);
  EXPECT_EQ(snap_a.histograms.at(read_us).count, 3u);
  EXPECT_EQ(snap_b.histograms.count(read_us), 0u);
  const std::vector<std::string> errors =
      testing::LintExposition(RenderPrometheus(snap_a));
  EXPECT_TRUE(errors.empty()) << errors.front();

  // Two WAL stores syncing every commit. C commits three times and then
  // loses its log device; D commits once and stays healthy.
  testing::TempFile tmp_c("scrape_c");
  testing::TempFile tmp_d("scrape_d");
  StoreOptions options;
  options.enable_wal = true;
  options.wal_sync = WalSyncMode::kEveryCommit;
  StoreOptions faulty_options = options;
  FaultyFile* pages = nullptr;
  FaultyFile* fwf = nullptr;
  faulty_options.file_wrapper = WrapInFaultyFiles(&pages, &fwf);
  ASSERT_OK_AND_ASSIGN(auto c, Store::Open(tmp_c.path(), faulty_options));
  ASSERT_OK_AND_ASSIGN(auto d, Store::Open(tmp_d.path(), options));
  ASSERT_NE(fwf, nullptr);
  for (int i = 0; i < 3; ++i) ASSERT_LAXML_OK(c->LoadXml("<c/>").status());
  ASSERT_LAXML_OK(d->LoadXml("<d/>").status());
  fwf->FailNth(FaultOp::kSync, fwf->op_count(FaultOp::kSync) + 1,
               Status::IOError("injected sync failure"), /*sticky=*/true);
  EXPECT_TRUE(c->LoadXml("<late/>").status().IsIOError());

  Snapshot snap_c;
  Snapshot snap_d;
  CollectStoreMetrics(*c, &snap_c);
  CollectStoreMetrics(*d, &snap_d);
  EXPECT_EQ(
      snap_c.counters.at("laxml_io_errors_total{op=\"insert_top_level\"}"),
      1u);
  for (const auto& [name, value] : snap_d.counters) {
    EXPECT_NE(name.rfind("laxml_io_errors_total", 0), 0u) << name;
  }
  // Each store's fsync histogram holds exactly its own syncs.
  const uint64_t c_syncs = c->wal()->stats().syncs;
  const uint64_t d_syncs = d->wal()->stats().syncs;
  EXPECT_GT(c_syncs, d_syncs);
  EXPECT_EQ(snap_c.histograms.at("laxml_wal_fsync_us").count, c_syncs);
  EXPECT_EQ(snap_d.histograms.at("laxml_wal_fsync_us").count, d_syncs);
  c->TestOnlyCrash();  // don't write back through the dead device
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

TEST(Trace, RingOverflowBumpsDroppedCounter) {
  // A fresh thread's ring of two slots: five spans overwrite three
  // undrained slots, and the tracer counts each loss.
  Tracer& tracer = Tracer::Global();
  const uint64_t before = tracer.dropped();
  tracer.set_ring_capacity(2);
  std::thread([&tracer] {
    for (uint64_t i = 0; i < 5; ++i) {
      tracer.ThreadRing()->Record("overflow", i, 1);
    }
  }).join();
  tracer.set_ring_capacity(8192);  // the default, for later threads
  EXPECT_EQ(tracer.dropped() - before, 3u);
  Snapshot snap;
  CollectTraceMetrics(&snap);
  EXPECT_EQ(snap.counters.at("laxml_trace_ring_dropped_total"),
            tracer.dropped());
}

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
