// Structural-index XPath bench: the laziness argument, measured. One
// XMark-flavored document (>= 100k elements at the default scale), one
// descendant query shape (//item//name), three plans:
//
//   scan        forced scan: every query is a full token-stream scan
//   cold        lazy index, invalidated before each query: scan + warm
//   warm        lazy index, memoized: posting-list joins only
//
// plus seven more shapes, each as the planner runs it on the warm lazy
// store and as a forced full scan (the `_scan` rows). The index answers
// all of them whole, with no scan: a join that counts a '*' step as a
// level, one onto an attribute's own posting list, one onto its
// elements' text children, and four whose predicates are semi-joins
// over the postings ([n] per parent, an attribute's and an element's
// value compared by value key, a child's existence):
//
//   wildcard        /site/regions/*/item[1]         (join, [n])
//   predicate       //item[@category='books']/name  (join, [@a='lit'])
//   exists_semijoin //person[creditcard]            (join, [p])
//   wildcard_join   /site/regions/*/item            (structural join)
//   attribute_join  //item/@category                (structural join)
//   text_join       //bidder/personref/text()       (join, text())
//   element_value   //item[quantity='3']            (join, [p='lit'])
//
// The headline number is warm vs scan (the issue's acceptance bar is
// >= 5x); the laziness number is memoized nodes: lazy touches only the
// queried tags' nodes, out of every element and attribute in the
// document.
//
//   bench_xpath [--scale N] [--reps N] [--json out.json]

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "index/structural_index.h"
#include "query/xpath_parser.h"
#include "query/xpath_stream.h"
#include "store/store.h"
#include "workload/doc_generator.h"

namespace laxml {
namespace {

using bench::Timer;

std::unique_ptr<Store> OpenWithDoc(const TokenSequence& doc) {
  auto store = Store::OpenInMemory(StoreOptions{});
  BENCH_CHECK(store.status());
  BENCH_CHECK((*store)->InsertTopLevel(doc).status());
  return std::move(store).value();
}

// Runs `reps` timed evaluations of `path`, returns per-query latencies
// in microseconds. `prep` runs untimed before each rep (e.g. the
// invalidation that makes every rep cold).
template <typename Prep>
std::vector<double> TimeQueries(const Store& store, const XPathPath& path,
                                bool allow_index, int reps, size_t* out_size,
                                Prep prep) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    prep();
    Timer t;
    auto ids = EvaluateXPathStreaming(store, path, allow_index);
    const double elapsed = t.Seconds();
    BENCH_CHECK(ids.status());
    *out_size = ids->size();
    us.push_back(elapsed * 1e6);
  }
  return us;
}

double Median(std::vector<double> v) { return bench::Percentile(&v, 0.5); }

}  // namespace
}  // namespace laxml

int main(int argc, char** argv) {
  using namespace laxml;

  int scale = 12000;  // ~10 elements per unit of scale
  int reps = 40;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  Random rng(20260808);
  const TokenSequence doc = GenerateAuctionDocument(&rng, scale);
  auto path = ParseXPath("//item//name");
  BENCH_CHECK(path.status());

  // A forced scan neither reads nor warms the index, so the scan rows
  // share the lazy store with the cold and warm ones.
  auto lazy_store = OpenWithDoc(doc);

  size_t scan_n = 0, cold_n = 0, warm_n = 0;
  auto nop = [] {};

  std::vector<double> scan_us =
      TimeQueries(*lazy_store, *path, false, reps, &scan_n, nop);
  std::vector<double> cold_us = TimeQueries(
      *lazy_store, *path, true, reps, &cold_n,
      [&] { lazy_store->structural_index()->InvalidateAll(); });
  // Leave the last cold rep's memo in place: these reps are pure joins.
  std::vector<double> warm_us =
      TimeQueries(*lazy_store, *path, true, reps, &warm_n, nop);

  // The other shapes on the lazy store (one untimed run of each warms
  // its tags), against the forced full scan.
  struct Shape {
    Shape(const char* name_in, const char* expr_in)
        : name(name_in), expr(expr_in) {}
    const char* name;
    const char* expr;
    std::vector<double> us, scan_us;
    size_t n = 0;
  };
  Shape shapes[] = {{"wildcard", "/site/regions/*/item[1]"},
                    {"predicate", "//item[@category='books']/name"},
                    {"exists_semijoin", "//person[creditcard]"},
                    {"wildcard_join", "/site/regions/*/item"},
                    {"attribute_join", "//item/@category"},
                    {"text_join", "//bidder/personref/text()"},
                    {"element_value", "//item[quantity='3']"}};
  // Planned and forced-scan reps alternate, so a drift in host speed
  // hits both rows alike.
  auto time_pair = [&](const XPathPath& p, std::vector<double>* planned,
                       std::vector<double>* forced, size_t* n) {
    BENCH_CHECK(EvaluateXPathStreaming(*lazy_store, p).status());
    for (int i = 0; i < reps; ++i) {
      size_t scanned_n = 0;
      for (double us : TimeQueries(*lazy_store, p, true, 1, n, nop)) {
        planned->push_back(us);
      }
      for (double us :
           TimeQueries(*lazy_store, p, false, 1, &scanned_n, nop)) {
        forced->push_back(us);
      }
      if (scanned_n != *n) {
        std::fprintf(stderr, "FATAL %s: planned %zu vs scan %zu\n",
                     p.ToString().c_str(), *n, scanned_n);
        std::exit(1);
      }
    }
  };
  for (Shape& shape : shapes) {
    auto p = ParseXPath(shape.expr);
    BENCH_CHECK(p.status());
    time_pair(*p, &shape.us, &shape.scan_us, &shape.n);
  }

  if (scan_n != cold_n || scan_n != warm_n) {
    std::fprintf(stderr,
                 "FATAL plan disagreement: scan=%zu cold=%zu warm=%zu\n",
                 scan_n, cold_n, warm_n);
    return 1;
  }

  // Every element and attribute: what indexing every tag would hold.
  uint64_t total_nodes = 0;
  for (const Token& t : doc) {
    if (t.type == TokenType::kBeginElement ||
        t.type == TokenType::kBeginAttribute) {
      ++total_nodes;
    }
  }
  const uint64_t lazy_memoized =
      lazy_store->structural_index()->memoized_nodes();
  const double scan_p50 = Median(scan_us);
  const double warm_p50 = Median(warm_us);
  const double speedup = warm_p50 > 0 ? scan_p50 / warm_p50 : 0;

  std::printf("=== bench_xpath: //item//name, %" PRIu64
              " indexable nodes (scale %d), %zu matches, %d reps ===\n",
              total_nodes, scale, scan_n, reps);
  std::printf("%-12s %12s\n", "plan", "p50 (us)");
  std::printf("%-12s %12.1f\n", "scan", scan_p50);
  std::printf("%-12s %12.1f\n", "cold", Median(cold_us));
  std::printf("%-12s %12.1f\n", "warm", warm_p50);
  for (const Shape& shape : shapes) {
    std::printf("%-19s %10.1f  (%zu matches, %s)\n", shape.name,
                Median(shape.us), shape.n, shape.expr);
    std::printf("%-19s %10.1f\n", (std::string(shape.name) + "_scan").c_str(),
                Median(shape.scan_us));
  }
  std::printf("warm vs scan: %.1fx\n", speedup);
  std::printf("laziness: lazy memoized %" PRIu64 " of %" PRIu64
              " element and attribute nodes (%.1f%%)\n",
              lazy_memoized, total_nodes,
              total_nodes > 0
                  ? 100.0 * static_cast<double>(lazy_memoized) /
                        static_cast<double>(total_nodes)
                  : 0.0);
  std::printf(
      "expected: warm joins beat the scan by >= 5x at this scale (they "
      "touch\nonly the two queried tags' postings); cold pays one scan "
      "to warm, i.e.\nit tracks the scan plan.\n"
      "Every other shape beats its forced-scan row: "
      "the '*' step is a level count,\n@category a posting list, [1] "
      "and [creditcard] semi-joins over the postings,\n"
      "[@category='books'] and [quantity='3'] compare value keys, and "
      "text()\nlocates each text leaf's text by arithmetic: none reads "
      "a token.\n");

  if (!json_path.empty()) {
    bench::JsonReport report("bench_xpath");
    char extra[128];
    std::snprintf(extra, sizeof(extra),
                  "\"nodes\": %llu, \"memoized\": %llu, ",
                  static_cast<unsigned long long>(total_nodes),
                  static_cast<unsigned long long>(lazy_memoized));
    auto add = [&](const char* op, std::vector<double>* samples,
                   const char* memo) {
      double total_s = 0;
      for (double us : *samples) total_s += us / 1e6;
      report.AddRow(op, 1, samples, total_s, memo);
    };
    add("scan", &scan_us, "");
    add("cold", &cold_us, "");
    add("warm", &warm_us, extra);
    for (Shape& shape : shapes) {
      add(shape.name, &shape.us, "");
      add((std::string(shape.name) + "_scan").c_str(), &shape.scan_us, "");
    }
    if (!report.WriteTo(json_path)) return 1;
  }
  return 0;
}
