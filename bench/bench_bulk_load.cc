// bench_bulk_load: streaming bulk-load throughput and the name
// dictionary's compression win, v1 vs v2 token codec on the same
// repetitive-tag purchase-orders document.
//
//   bench_bulk_load [--orders N] [--items M] [--reps R]
//                   [--json out.json] [--xml-out FILE]
//
// Measures, per codec:
//   * bulk_load_vN    — Store::BulkLoad bytes/s (streaming, no token
//                       vector), plus bytes/token of the result
//   * cold_scan_vN    — full-document Read() after reopen (pages cold
//                       in the pool, so fewer bytes = faster)
//   * xpath_warm_vN   — //item//sku p50 with a warm structural index
//                       (the "symbols don't slow the hot path" check)
// and one load_xml_v2 row: the materialize-everything baseline
// Store::LoadXml for the same document.
//
// --xml-out writes the generated document so CI can reuse it for the
// laxml_cli / laxml_fsck smoke without generating twice.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "query/xpath_parser.h"
#include "query/xpath_stream.h"
#include "store/store.h"
#include "workload/doc_generator.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using bench::Timer;

StoreOptions CodecOptions(uint32_t codec) {
  StoreOptions options;
  options.token_codec = codec;
  options.pager.pool_frames = 512;
  return options;
}

struct CodecRun {
  double load_seconds = 0;
  double scan_seconds = 0;
  double bytes_per_token = 0;
  uint64_t payload_bytes = 0;
  uint64_t tokens = 0;
  std::vector<double> xpath_us;
};

CodecRun RunCodec(uint32_t codec, const std::string& xml,
                  const std::string& db_path, int reps,
                  const std::string& xpath, bench::JsonReport* report) {
  CodecRun run;
  std::remove(db_path.c_str());
  std::remove((db_path + ".wal").c_str());
  auto store = Store::Open(db_path, CodecOptions(codec));
  BENCH_CHECK(store.status());

  size_t off = 0;
  Timer load;
  auto stats = (*store)->BulkLoad(
      [&](char* buf, size_t cap) -> Result<size_t> {
        size_t n = std::min(cap, xml.size() - off);
        std::memcpy(buf, xml.data() + off, n);
        off += n;
        return n;
      });
  run.load_seconds = load.Seconds();
  BENCH_CHECK(stats.status());
  run.payload_bytes = stats->payload_bytes;
  run.tokens = stats->tokens;
  run.bytes_per_token =
      stats->tokens > 0
          ? static_cast<double>(stats->payload_bytes) / stats->tokens
          : 0.0;

  const std::string suffix = "_v" + std::to_string(codec);
  bench::AddStorageMeta(report, **store, db_path, suffix);

  // Cold scan: reopen so the buffer pool starts empty.
  store->reset();
  store = Store::Open(db_path, CodecOptions(codec));
  BENCH_CHECK(store.status());
  Timer scan;
  auto all = (*store)->Read();
  run.scan_seconds = scan.Seconds();
  BENCH_CHECK(all.status());

  // Warm XPath: first evaluation warms the lazy structural index, then
  // the timed reps all ride the warm path.
  auto path = ParseXPath(xpath);
  BENCH_CHECK(path.status());
  BENCH_CHECK(
      EvaluateXPathStreaming(**store, *path, /*allow_index=*/true).status());
  for (int i = 0; i < reps; ++i) {
    Timer t;
    auto ids = EvaluateXPathStreaming(**store, *path, /*allow_index=*/true);
    const double elapsed = t.Seconds();
    BENCH_CHECK(ids.status());
    run.xpath_us.push_back(elapsed * 1e6);
  }
  return run;
}

}  // namespace
}  // namespace laxml

int main(int argc, char** argv) {
  using namespace laxml;

  int orders = 20000;
  int items = 3;
  int reps = 30;
  std::string doc_kind = "catalog";
  std::string json_path;
  std::string xml_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--orders") == 0 && i + 1 < argc) {
      orders = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--doc") == 0 && i + 1 < argc) {
      doc_kind = argv[++i];
      if (doc_kind != "catalog" && doc_kind != "orders") {
        std::fprintf(stderr, "--doc takes 'catalog' or 'orders'\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--items") == 0 && i + 1 < argc) {
      items = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--xml-out") == 0 && i + 1 < argc) {
      xml_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  Random rng(20260809);
  // The catalog's verbose repeated markup is the dictionary's home
  // turf; --doc orders swaps in the prose-heavier purchase-order feed.
  const TokenSequence doc =
      doc_kind == "catalog"
          ? GenerateCatalogDocument(&rng, orders)
          : GeneratePurchaseOrdersDocument(&rng, orders, items);
  const std::string xpath = doc_kind == "catalog"
                                ? "//lineItem//productCode"
                                : "//item//sku";
  auto xml = SerializeTokens(doc);
  BENCH_CHECK(xml.status());
  std::printf("=== bench_bulk_load: %s doc, %d records, %.1f MB XML\n",
              doc_kind.c_str(), orders,
              static_cast<double>(xml->size()) / (1024.0 * 1024.0));
  if (!xml_out.empty()) {
    std::FILE* f = std::fopen(xml_out.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(xml->data(), 1, xml->size(), f) != xml->size()) {
      std::fprintf(stderr, "cannot write %s\n", xml_out.c_str());
      return 1;
    }
    std::fclose(f);
  }

  bench::JsonReport report("bench_bulk_load");
  report.AddMeta("doc", doc_kind);
  report.AddMeta("orders", std::to_string(orders));
  report.AddMeta("items", std::to_string(items));
  report.AddMeta("xml_bytes", std::to_string(xml->size()));

  bench::TempDb db_v1("bulk_v1");
  bench::TempDb db_v2("bulk_v2");
  CodecRun v1 = RunCodec(1, *xml, db_v1.path(), reps, xpath, &report);
  CodecRun v2 = RunCodec(2, *xml, db_v2.path(), reps, xpath, &report);

  // The materialize-the-whole-token-vector baseline, v2 codec.
  double load_xml_seconds = 0;
  {
    bench::TempDb db("loadxml");
    auto store = Store::Open(db.path(), CodecOptions(2));
    BENCH_CHECK(store.status());
    Timer t;
    BENCH_CHECK((*store)->LoadXml(*xml).status());
    load_xml_seconds = t.Seconds();
  }

  const double ratio =
      v2.bytes_per_token > 0 ? v1.bytes_per_token / v2.bytes_per_token : 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ratio);
  report.AddMeta("bytes_per_token_ratio_v1_over_v2", buf);

  for (auto* run : {&v1, &v2}) {
    const uint32_t codec = run == &v1 ? 1 : 2;
    const std::string suffix = "_v" + std::to_string(codec);
    std::string extra = "\"mb_per_sec\": " +
                        std::to_string(static_cast<double>(xml->size()) /
                                       (1024.0 * 1024.0) /
                                       run->load_seconds) +
                        ", ";
    report.AddThroughputRow("bulk_load" + suffix, 1, xml->size(),
                            run->load_seconds, extra);
    report.AddThroughputRow("cold_scan" + suffix, 1, run->tokens,
                            run->scan_seconds);
    std::vector<double> samples = run->xpath_us;
    double total_s = 0;
    for (double us : samples) total_s += us / 1e6;
    report.AddRow("xpath_warm" + suffix, 1, &samples, total_s);
  }
  report.AddThroughputRow("load_xml_v2", 1, xml->size(),
                          load_xml_seconds);

  auto p50 = [](std::vector<double> v) {
    return bench::Percentile(&v, 0.5);
  };
  const double xpath_v1_p50 = p50(v1.xpath_us);
  const double xpath_v2_p50 = p50(v2.xpath_us);
  std::printf("bulk_load_v1: %7.1f MB/s  %5.2f bytes/token\n",
              static_cast<double>(xml->size()) / (1024.0 * 1024.0) /
                  v1.load_seconds,
              v1.bytes_per_token);
  std::printf("bulk_load_v2: %7.1f MB/s  %5.2f bytes/token  (%.2fx smaller)\n",
              static_cast<double>(xml->size()) / (1024.0 * 1024.0) /
                  v2.load_seconds,
              v2.bytes_per_token, ratio);
  std::printf("load_xml_v2 : %7.1f MB/s (materialized baseline)\n",
              static_cast<double>(xml->size()) / (1024.0 * 1024.0) /
                  load_xml_seconds);
  std::printf("cold_scan   : v1 %.0f ms, v2 %.0f ms\n",
              v1.scan_seconds * 1e3, v2.scan_seconds * 1e3);
  std::printf("xpath_warm  : v1 p50 %.0f us, v2 p50 %.0f us (%+.1f%%)\n",
              xpath_v1_p50, xpath_v2_p50,
              xpath_v1_p50 > 0
                  ? 100.0 * (xpath_v2_p50 - xpath_v1_p50) / xpath_v1_p50
                  : 0.0);
  if (ratio < 1.3) {
    std::fprintf(stderr,
                 "WARN: bytes/token ratio %.2f below the 1.3x target\n",
                 ratio);
  }

  if (!json_path.empty() && !report.WriteTo(json_path)) return 1;
  return 0;
}
