// bench_bulk_load: streaming bulk-load throughput and the name
// dictionary's compression win on a repetitive-tag document: the stored
// form with symbol-coded names against the inline form.
//
//   bench_bulk_load [--orders N] [--items M] [--reps R]
//                   [--json out.json] [--xml-out FILE]
//
// Loads the document twice: into a store with its full dictionary
// (suffix _dict) and into one whose dictionary is capped so every name
// is stored inline (suffix _inline). Measures, per store:
//   * bulk_load_S     — Store::BulkLoad bytes/s (streaming, no token
//                       vector), plus bytes/token of the result
//   * cold_scan_S     — full-document Read() after reopen (pages cold
//                       in the pool, so fewer bytes = faster)
//   * xpath_warm_S    — //item//sku p50 with a warm structural index
//                       (the "symbols don't slow the hot path" check)
// and one load_xml row: the materialize-everything baseline
// Store::LoadXml for the same document. bytes_per_token_ratio_v1_over_v2
// divides the inline (WAL and wire) form's bytes per token, summed
// exactly with EncodedTokenSize over the read-back document, by the
// dictionary store's.
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
#include "xml/token_codec.h"

namespace laxml {
namespace {

using bench::Timer;

// With `capped`, the dictionary interns nothing: every name is stored
// inline after a code-0 marker.
Result<std::unique_ptr<Store>> OpenStore(const std::string& db_path,
                                         bool capped) {
  StoreOptions options;
  options.pager.pool_frames = 512;
  LAXML_ASSIGN_OR_RETURN(auto store, Store::Open(db_path, options));
  if (capped) store->name_dictionary()->set_byte_budget(1);
  return store;
}

struct StoreRun {
  double load_seconds = 0;
  double scan_seconds = 0;
  double bytes_per_token = 0;
  /// Inline (WAL / wire) form bytes per token of the read-back document.
  double inline_bytes_per_token = 0;
  uint64_t tokens = 0;
  std::vector<double> xpath_us;
};

StoreRun RunStore(bool capped, const std::string& xml,
                  const std::string& db_path, int reps,
                  const std::string& xpath, bench::JsonReport* report) {
  StoreRun run;
  std::remove(db_path.c_str());
  std::remove((db_path + ".wal").c_str());
  auto store = OpenStore(db_path, capped);
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
  run.tokens = stats->tokens;
  run.bytes_per_token =
      stats->tokens > 0
          ? static_cast<double>(stats->payload_bytes) / stats->tokens
          : 0.0;

  bench::AddStorageMeta(report, **store, db_path,
                        capped ? "_inline" : "_dict");

  // Cold scan: reopen so the buffer pool starts empty.
  store->reset();
  store = OpenStore(db_path, capped);
  BENCH_CHECK(store.status());
  Timer scan;
  auto all = (*store)->Read();
  run.scan_seconds = scan.Seconds();
  BENCH_CHECK(all.status());
  uint64_t inline_bytes = 0;
  for (const Token& t : *all) inline_bytes += EncodedTokenSize(t);
  run.inline_bytes_per_token =
      all->empty() ? 0.0 : static_cast<double>(inline_bytes) / all->size();

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

  bench::TempDb db_inline("bulk_inline");
  bench::TempDb db_dict("bulk_dict");
  StoreRun inl =
      RunStore(/*capped=*/true, *xml, db_inline.path(), reps, xpath, &report);
  StoreRun dict =
      RunStore(/*capped=*/false, *xml, db_dict.path(), reps, xpath, &report);

  // The materialize-the-whole-token-vector baseline.
  double load_xml_seconds = 0;
  {
    bench::TempDb db("loadxml");
    auto store = OpenStore(db.path(), /*capped=*/false);
    BENCH_CHECK(store.status());
    Timer t;
    BENCH_CHECK((*store)->LoadXml(*xml).status());
    load_xml_seconds = t.Seconds();
  }

  const double ratio = dict.bytes_per_token > 0
                           ? dict.inline_bytes_per_token / dict.bytes_per_token
                           : 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ratio);
  report.AddMeta("bytes_per_token_ratio_v1_over_v2", buf);

  for (auto* run : {&inl, &dict}) {
    const std::string suffix = run == &inl ? "_inline" : "_dict";
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
  report.AddThroughputRow("load_xml", 1, xml->size(), load_xml_seconds);

  auto p50 = [](std::vector<double> v) {
    return bench::Percentile(&v, 0.5);
  };
  const double xpath_inline_p50 = p50(inl.xpath_us);
  const double xpath_dict_p50 = p50(dict.xpath_us);
  std::printf("inline form      : %5.2f bytes/token (WAL / wire)\n",
              dict.inline_bytes_per_token);
  std::printf("bulk_load_inline : %7.1f MB/s  %5.2f bytes/token\n",
              static_cast<double>(xml->size()) / (1024.0 * 1024.0) /
                  inl.load_seconds,
              inl.bytes_per_token);
  std::printf("bulk_load_dict   : %7.1f MB/s  %5.2f bytes/token  (%.2fx "
              "smaller than inline)\n",
              static_cast<double>(xml->size()) / (1024.0 * 1024.0) /
                  dict.load_seconds,
              dict.bytes_per_token, ratio);
  std::printf("load_xml         : %7.1f MB/s (materialized baseline)\n",
              static_cast<double>(xml->size()) / (1024.0 * 1024.0) /
                  load_xml_seconds);
  std::printf("cold_scan        : inline %.0f ms, dict %.0f ms\n",
              inl.scan_seconds * 1e3, dict.scan_seconds * 1e3);
  std::printf("xpath_warm       : inline p50 %.0f us, dict p50 %.0f us "
              "(%+.1f%%)\n",
              xpath_inline_p50, xpath_dict_p50,
              xpath_inline_p50 > 0 ? 100.0 *
                                         (xpath_dict_p50 - xpath_inline_p50) /
                                         xpath_inline_p50
                                   : 0.0);
  if (ratio < 1.3) {
    std::fprintf(stderr,
                 "WARN: bytes/token ratio %.2f below the 1.3x target\n",
                 ratio);
  }

  if (!json_path.empty() && !report.WriteTo(json_path)) return 1;
  return 0;
}
