// Structural-index XPath bench: the laziness argument, measured. One
// XMark-flavored document (>= 100k elements at the default scale), one
// descendant query shape (//item//name), three plans:
//
//   scan        forced scan: every query is a full token-stream scan
//   cold        lazy index, invalidated before each query: scan + warm
//   warm        lazy index, memoized: the path summary's partitions
//
// plus eleven more shapes, each as the planner runs it on the warm lazy
// store and as a forced full scan (the `_scan` rows). The index answers
// all of them whole, with no scan. The predicate-free ones (and [n] on
// a final child step) read the path summary: the partitions of the last
// named step's postings whose label paths match, one of them, all of
// them, or several merged by pre; [n] numbers each partition on its
// own. The other five run joins, and each predicate size rule has a
// row on either side of it. [creditcard] (about one per 2.5 persons)
// gallops each creditcard's parent into the persons, [bidder] (about
// 1.5 per auction) merges. The books and quantity '=' rows, whose
// lists are as long as their frontiers, test the list's value keys in
// place and climb the matches' parents to the frontier; the africa
// row's list is five times its frontier, so it joins down from the
// frontier and gallops the few matches back:
//
//   child_join_name     /site/people/person/name        (summary, 1 path)
//   child_join_increase //open_auction/bidder/increase  (summary, 1 path)
//   wildcard            /site/regions/*/item[1]         (summary, [n])
//   predicate           //item[@category='books']/name  (join, bottom-up)
//   exists_semijoin     //person[creditcard]            (join, [p])
//   wildcard_join       /site/regions/*/item            (summary, all)
//   attribute_join      //item/@category                (summary, all)
//   text_join           //bidder/personref/text()       (summary, text())
//   element_value       //item[quantity='3']            (join, bottom-up)
//   region_value        /site/regions/africa/item[@category='books']
//                                                       (join, down)
//   exists_merge        //open_auction[bidder]          (join, merge)
//
// Every planned answer is checked id for id against the forced scan's,
// and the cold and warm answers against the scan's; a mismatch exits 1.
// Each warm row prints the p50 of its parse and of its plan and run,
// apart, in nanoseconds, and the plan's postings_read (postings its join
// kernels and path-summary reads visit) and summary_paths (label-path
// partitions the summary read; 0: the joins ran), and the bench exits 1
// when a row reads more than its selection warrants (CheckPlanReads): a
// predicate-free row exactly the entries it selects (the answer, or the
// parents of a final text()), a summary [n] row two entries per
// same-parent run, and any other predicated row twice its matches and
// its predicate lists at most.
// The headline number is warm vs scan (>= 5x expected); the laziness
// number is memoized nodes: lazy touches only the queried tags' nodes,
// out of every element and attribute in the document.
//
//   bench_xpath [--scale N] [--reps N] [--json out.json]

#include <algorithm>
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
// in microseconds and the last answer in `out_ids`. `prep` runs untimed
// before each rep (e.g. the invalidation that makes every rep cold).
template <typename Prep>
std::vector<double> TimeQueries(const Store& store, const XPathPath& path,
                                bool allow_index, int reps,
                                std::vector<NodeId>* out_ids, Prep prep) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    prep();
    Timer t;
    auto ids = EvaluateXPathStreaming(store, path, allow_index);
    const double elapsed = t.Seconds();
    BENCH_CHECK(ids.status());
    *out_ids = std::move(ids).value();
    us.push_back(elapsed * 1e6);
  }
  return us;
}

// Times `reps` parses of `expr`, in nanoseconds each.
std::vector<double> TimeParses(const char* expr, int reps) {
  std::vector<double> ns;
  ns.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Timer t;
    auto path = ParseXPath(expr);
    const double elapsed = t.Seconds();
    BENCH_CHECK(path.status());
    ns.push_back(elapsed * 1e9);
  }
  return ns;
}

// Exits 1 unless `got`, the answer of `plan`, is the scan's answer `want`
// id for id: a join that returns wrong nodes in the right number fails.
void CheckIds(const XPathPath& path, const char* plan,
              const std::vector<NodeId>& got,
              const std::vector<NodeId>& want) {
  if (got == want) return;
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  std::fprintf(stderr,
               "FATAL %s: %s answer (%zu ids) differs from the scan's (%zu "
               "ids) at position %zu\n",
               path.ToString().c_str(), plan, got.size(), want.size(), i);
  std::exit(1);
}

double Median(std::vector<double> v) { return bench::Percentile(&v, 0.5); }

/// What the warm plan of a path reads: its postings_read and
/// summary_paths.
struct PlanReads {
  uint64_t postings_read = 0;
  size_t summary_paths = 0;
};

/// The same-parent runs a summary [n] on `path`'s last step walks: the
/// distinct parents of what the path selects without its [n].
uint64_t Runs(const Store& store, XPathPath path) {
  std::vector<XPathPredicate>& preds = path.steps.back().predicates;
  std::erase_if(preds, [](const XPathPredicate& pred) {
    return pred.kind == XPathPredicate::Kind::kPosition;
  });
  auto plan = PlanXPath(store, path);
  BENCH_CHECK(plan.status());
  const StructuralSpan entries = plan->entries();
  std::vector<uint64_t> parents;
  for (size_t i = 0; i < entries.size(); ++i) {
    parents.push_back(entries.at(i)->parent_pre);
  }
  std::sort(parents.begin(), parents.end());
  return static_cast<uint64_t>(
      std::unique(parents.begin(), parents.end()) - parents.begin());
}

[[noreturn]] void FailReads(const XPathPath& path, uint64_t read,
                            uint64_t bound, const char* rule) {
  std::fprintf(stderr,
               "FATAL %s: warm plan read %" PRIu64 " postings, over %" PRIu64
               " (%s)\n",
               path.ToString().c_str(), read, bound, rule);
  std::exit(1);
}

// Plans `path` on the warm store and exits 1 when it reads more than
// its selection warrants:
//   - a predicate-free path: other than the entries its plan selects;
//   - a path the summary numbers ([n] on a final child step): over
//     partitions + 2 x its same-parent runs, the first entry and the
//     n-th entry of each run (the gallops between runs are not
//     counted);
//   - any other predicated path: over 2 x (matches + the sizes of its
//     predicate paths' lists), what reading each once both ways costs.
PlanReads CheckPlanReads(const Store& store, const XPathPath& path) {
  auto plan = PlanXPath(store, path);
  BENCH_CHECK(plan.status());
  PlanReads reads{plan->postings_read, plan->summary_paths};
  if (!plan->answered()) {
    std::fprintf(stderr, "FATAL %s: warm plan is no join\n",
                 path.ToString().c_str());
    std::exit(1);
  }
  const uint64_t matches = plan->entries().size();
  // The lists come in join order: each step's, then its predicate
  // paths' steps'.
  bool predicated = false, numbered = false;
  uint64_t predicate_lists = 0;
  size_t next = 0;
  for (const XPathStep& step : path.steps) {
    ++next;
    for (const XPathPredicate& pred : step.predicates) {
      predicated = true;
      numbered = numbered || pred.kind == XPathPredicate::Kind::kPosition;
      for (size_t i = 0; i < pred.path.steps.size(); ++i) {
        const StructuralIndex::EntryList& p = plan->lists[next++];
        if (p != nullptr) predicate_lists += p->size();
      }
    }
  }
  if (!predicated) {
    if (plan->postings_read != matches) {
      FailReads(path, plan->postings_read, matches, "the selected entries");
    }
  } else if (numbered && plan->summary_paths > 0) {
    const uint64_t bound =
        plan->summary_paths + 2 * Runs(store, path);
    if (plan->postings_read > bound) {
      FailReads(path, plan->postings_read, bound,
                "partitions + 2 x same-parent runs");
    }
  } else {
    const uint64_t bound = 2 * (matches + predicate_lists);
    if (plan->postings_read > bound) {
      FailReads(path, plan->postings_read, bound,
                "2 x (matches + predicate lists)");
    }
  }
  return reads;
}

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
  const char* const kWarmExpr = "//item//name";
  auto path = ParseXPath(kWarmExpr);
  BENCH_CHECK(path.status());

  // A forced scan neither reads nor warms the index, so the scan rows
  // share the lazy store with the cold and warm ones.
  auto lazy_store = OpenWithDoc(doc);

  std::vector<NodeId> scan_ids, cold_ids, warm_ids;
  auto nop = [] {};

  std::vector<double> scan_us =
      TimeQueries(*lazy_store, *path, false, reps, &scan_ids, nop);
  std::vector<double> cold_us = TimeQueries(
      *lazy_store, *path, true, reps, &cold_ids,
      [&] { lazy_store->structural_index()->InvalidateAll(); });
  // Leave the last cold rep's memo in place: these reps are pure joins.
  std::vector<double> warm_us =
      TimeQueries(*lazy_store, *path, true, reps, &warm_ids, nop);
  std::vector<double> warm_parse_ns = TimeParses(kWarmExpr, reps);
  CheckIds(*path, "cold", cold_ids, scan_ids);
  CheckIds(*path, "warm", warm_ids, scan_ids);

  // The other shapes on the lazy store (one untimed run of each warms
  // its tags), against the forced full scan.
  struct Shape {
    Shape(const char* name_in, const char* expr_in)
        : name(name_in), expr(expr_in) {}
    const char* name;
    const char* expr;
    std::vector<double> us, scan_us, parse_ns;
    size_t n = 0;
    PlanReads reads;
  };
  Shape shapes[] = {{"child_join_name", "/site/people/person/name"},
                    {"child_join_increase", "//open_auction/bidder/increase"},
                    {"wildcard", "/site/regions/*/item[1]"},
                    {"predicate", "//item[@category='books']/name"},
                    {"exists_semijoin", "//person[creditcard]"},
                    {"wildcard_join", "/site/regions/*/item"},
                    {"attribute_join", "//item/@category"},
                    {"text_join", "//bidder/personref/text()"},
                    {"element_value", "//item[quantity='3']"},
                    {"region_value",
                     "/site/regions/africa/item[@category='books']"},
                    {"exists_merge", "//open_auction[bidder]"}};
  // Planned and forced-scan reps alternate, so a drift in host speed
  // hits both rows alike.
  auto time_pair = [&](const XPathPath& p, std::vector<double>* planned,
                       std::vector<double>* forced, size_t* n) {
    BENCH_CHECK(EvaluateXPathStreaming(*lazy_store, p).status());
    std::vector<NodeId> planned_ids, scanned_ids;
    for (int i = 0; i < reps; ++i) {
      for (double us :
           TimeQueries(*lazy_store, p, true, 1, &planned_ids, nop)) {
        planned->push_back(us);
      }
      for (double us :
           TimeQueries(*lazy_store, p, false, 1, &scanned_ids, nop)) {
        forced->push_back(us);
      }
      CheckIds(p, "planned", planned_ids, scanned_ids);
    }
    *n = planned_ids.size();
  };
  for (Shape& shape : shapes) {
    auto p = ParseXPath(shape.expr);
    BENCH_CHECK(p.status());
    time_pair(*p, &shape.us, &shape.scan_us, &shape.n);
    shape.parse_ns = TimeParses(shape.expr, reps);
    shape.reads = CheckPlanReads(*lazy_store, *p);
  }
  // The timed shapes warmed more tags; //item//name's tags stay warm.
  const PlanReads warm_reads = CheckPlanReads(*lazy_store, *path);

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
              total_nodes, scale, scan_ids.size(), reps);
  // Scan rows print their p50; warm rows the p50s of the parse and of
  // the plan and run after it, apart, in nanoseconds.
  std::printf("%-24s %10s %10s %14s %14s %14s\n", "plan", "p50 (us)",
              "parse (ns)", "plan+run (ns)", "postings_read", "summary_paths");
  std::printf("%-24s %10.1f\n", "scan", scan_p50);
  std::printf("%-24s %10.1f\n", "cold", Median(cold_us));
  std::printf("%-24s %10s %10.0f %14.0f %14" PRIu64 " %14zu\n", "warm", "",
              Median(warm_parse_ns), warm_p50 * 1e3, warm_reads.postings_read,
              warm_reads.summary_paths);
  for (const Shape& shape : shapes) {
    std::printf("%-24s %10s %10.0f %14.0f %14" PRIu64
                " %14zu  (%zu matches, %s)\n",
                shape.name, "", Median(shape.parse_ns), Median(shape.us) * 1e3,
                shape.reads.postings_read, shape.reads.summary_paths, shape.n,
                shape.expr);
    std::printf("%-24s %10.1f\n", (std::string(shape.name) + "_scan").c_str(),
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
      "expected: warm beats the scan by >= 5x at this scale (it reads "
      "only the\nmatching partitions of the queried tag's postings); cold "
      "pays one scan to\nwarm, i.e. it tracks the scan plan.\n"
      "Every other shape beats its forced-scan row and reads about what "
      "it selects:\npredicate-free paths read their label paths' "
      "partitions, [1] takes each\nparent's first child in each partition, "
      "[creditcard] gallops each\ncreditcard's parent into the persons "
      "and [bidder] merges with the auctions,\n[@category='books'] and "
      "[quantity='3'] test value keys in place and climb the\nmatches to "
      "their items while africa's books join down from its items, and\n"
      "text() locates each text leaf's text by arithmetic: none reads a "
      "token.\n");

  if (!json_path.empty()) {
    bench::JsonReport report("bench_xpath");
    char extra[128];
    std::snprintf(extra, sizeof(extra),
                  "\"nodes\": %llu, \"memoized\": %llu, ",
                  static_cast<unsigned long long>(total_nodes),
                  static_cast<unsigned long long>(lazy_memoized));
    auto add = [&](const char* op, std::vector<double>* samples,
                   const std::string& memo) {
      double total_s = 0;
      for (double us : *samples) total_s += us / 1e6;
      report.AddRow(op, 1, samples, total_s, memo);
    };
    auto reads_json = [](const PlanReads& reads,
                         const std::vector<double>& parse_ns) {
      return "\"postings_read\": " + std::to_string(reads.postings_read) +
             ", \"summary_paths\": " + std::to_string(reads.summary_paths) +
             ", \"parse_ns\": " +
             std::to_string(static_cast<uint64_t>(Median(parse_ns))) + ", ";
    };
    add("scan", &scan_us, "");
    add("cold", &cold_us, "");
    add("warm", &warm_us, extra + reads_json(warm_reads, warm_parse_ns));
    for (Shape& shape : shapes) {
      add(shape.name, &shape.us, reads_json(shape.reads, shape.parse_ns));
      add((std::string(shape.name) + "_scan").c_str(), &shape.scan_us, "");
    }
    if (!report.WriteTo(json_path)) return 1;
  }
  return 0;
}
