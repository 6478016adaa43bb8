// Reproduction of the paper's Table 5 (Section 7): inserts, sequential
// scans and random reads under its four indexing configurations (Full
// Index; Range Index with many granular or few coarse entries; coarse
// Range Index + Partial Index). Workload, per the paper's motivating
// scenario (Section 4.1): a purchase-order feed inserting fragments as
// the last child of the root, then full scans, then skewed random reads
// of small <item> subtrees. The metric is kb/s of token data moved, the
// paper's "read speed, relative to data size". We reproduce the *shape*
// of Table 5, not the 2005 absolute numbers; see EXPERIMENTS.md.
//
// --sweep adds the paper's two Section-9 questions on the same workload:
// Ablation A sweeps the range cap of a plain Range Index, Ablation B the
// Partial Index capacity against the Zipf skew over coarse ranges.
// Each point runs in a fresh child process (a warmed allocator or CPU
// state was measured to skew scans by over 2x), which hands its numbers
// back through a pipe. --reps N runs the point list N times, rep r
// starting at point r mod n, and reports each cell as median [min-max].
// The binary exits 1 when a count check on the Table-5 rows fails;
// counts repeat exactly run to run, so no timing is checked.
//
//   bench_table5 [--reps N] [--sweep] [--json PATH]

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "store/store.h"
#include "workload/doc_generator.h"
#include "workload/zipf.h"

namespace laxml {
namespace {

using bench::EncodedBytes;
using bench::KbPerSec;
using bench::TempDb;
using bench::Timer;

// Workload size, fixed by one rule before any shape claim was read: the
// 16 MiB pool holds the whole store of every Table-5 row (a count check
// below), which caps the feed at 800 orders (the Full Index store fills
// 3 957 of the 4 096 frames), and the scans and reads are long enough
// that each of their timed phases lasts at least 100 ms on a 4-core
// x86-64 host, fast CPU spells included. The feed cannot meet that
// rule on every row: the coarse+partial one lasts ~35-50 ms.
constexpr int kOrders = 800;
constexpr int kItemsPerOrder = 40;
constexpr int kSeqScans = 6;
constexpr int kRandomReads = 150000;
constexpr double kTable5Zipf = 1.3;
constexpr uint32_t kPoolFrames = 4096;  // 16 MiB of 4 KiB pages

struct Point {
  const char* group;  // JSON "op": table5, range_cap or partial_index
  std::string label;
  IndexMode mode;
  uint32_t max_range_bytes;
  size_t partial_capacity;
  double zipf;
};

// One child's numbers for one point, as it writes them. The
// fields before kRanges are timings, which vary run to run; the rest
// are counts, which repeat exactly.
enum Field {
  kInsertKbs, kScanKbs, kRandomKbs, kInsertMs, kScanMs, kRandomMs,
  kRanges, kEntries, kLiveNodes, kLocatePerRead, kHitPct, kEvictions,
  kFieldCount
};
constexpr const char* kFieldNames[kFieldCount] = {
    "insert_kb_s", "scan_kb_s", "random_kb_s", "insert_ms", "scan_ms",
    "random_ms", "ranges", "index_entries", "live_nodes",
    "locate_tokens_per_read", "partial_hit_pct", "pool_evictions"};
using Sample = std::array<double, kFieldCount>;

std::vector<Point> Points(bool sweep) {
  std::vector<Point> points = {
      {"table5", "Full Index (max. granularity)", IndexMode::kFullIndex, 0,
       0, kTable5Zipf},
      {"table5", "Range Index (many, granular entries)",
       IndexMode::kRangeIndex, 2048, 0, kTable5Zipf},
      {"table5", "Range Index (few, coarse, large entries)",
       IndexMode::kRangeIndex, 0, 0, kTable5Zipf},
      {"table5", "Range Index (coarse) + Partial Index (memory)",
       IndexMode::kRangeIndex, 0, 1 << 16, kTable5Zipf},
  };
  if (!sweep) return points;
  for (uint32_t cap : {128u, 256u, 512u, 1024u, 2048u, 4096u, 16384u, 0u}) {
    points.push_back({"range_cap",
                      cap == 0 ? "cap unbounded"
                               : "cap " + std::to_string(cap) + " B",
                      IndexMode::kRangeIndex, cap, 0, 0.9});
  }
  for (size_t capacity : {0ul, 64ul, 256ul, 1024ul, 8192ul, 65536ul}) {
    for (double zipf : {0.0, 0.9, 1.3}) {
      char label[64];
      std::snprintf(label, sizeof(label), "capacity %zu, zipf %.1f",
                    capacity, zipf);
      points.push_back({"partial_index", label, IndexMode::kRangeIndex, 0,
                        capacity, zipf});
    }
  }
  return points;
}

Sample RunPoint(const Point& point) {
  Sample sample{};
  TempDb db("table5");
  StoreOptions options;
  options.index_mode = point.mode;
  options.max_range_bytes = point.max_range_bytes;
  options.partial_index_capacity = point.partial_capacity;
  options.pager.page_size = 4096;
  options.pager.pool_frames = kPoolFrames;
  auto opened = Store::Open(db.path(), options);
  BENCH_CHECK(opened.status());
  std::unique_ptr<Store> store = std::move(opened).value();

  // ---- Insert phase: the purchase-order feed.
  Random rng(4242);
  std::vector<TokenSequence> orders;
  orders.reserve(kOrders);
  uint64_t insert_bytes = 0;
  for (int i = 0; i < kOrders; ++i) {
    orders.push_back(GeneratePurchaseOrder(&rng, i + 1, kItemsPerOrder));
    insert_bytes += EncodedBytes(orders.back());
  }
  auto root_id = store->InsertTopLevel(
      {Token::BeginElement("purchase-orders"), Token::EndElement()});
  BENCH_CHECK(root_id.status());

  Timer insert_timer;
  for (const TokenSequence& po : orders) {
    BENCH_CHECK(store->InsertIntoLast(*root_id, po).status());
  }
  sample[kInsertMs] = insert_timer.Seconds() * 1e3;
  sample[kInsertKbs] = KbPerSec(insert_bytes, sample[kInsertMs] / 1e3);

  // ---- Sequential scan phase.
  uint64_t scan_bytes = 0;
  for (int i = 0; i < 2; ++i) {  // warm both pool and process heap
    auto warm = store->Read();
    BENCH_CHECK(warm.status());
    scan_bytes = EncodedBytes(*warm);
  }
  Timer scan_timer;
  for (int i = 0; i < kSeqScans; ++i) {
    BENCH_CHECK(store->Read().status());
  }
  sample[kScanMs] = scan_timer.Seconds() * 1e3;
  sample[kScanKbs] = KbPerSec(scan_bytes * kSeqScans, sample[kScanMs] / 1e3);

  // ---- Random read phase: small subtrees (<item> elements), skewed.
  std::vector<NodeId> item_ids = bench::ElementIds(store.get(), "item");
  ZipfGenerator zipf(item_ids.size(), point.zipf, 777);
  // Pre-draw targets so sampling cost is outside the timed region.
  std::vector<NodeId> targets;
  targets.reserve(kRandomReads);
  for (int i = 0; i < kRandomReads; ++i) {
    targets.push_back(item_ids[zipf.Next()]);
  }
  // The read columns count the timed reads only, not the feed's locates.
  const uint64_t locate_before = store->stats().locate_scan_tokens;
  store->mutable_partial_index().ResetStats();
  uint64_t random_bytes = 0;
  Timer random_timer;
  for (NodeId id : targets) {
    auto subtree = store->Read(id);
    BENCH_CHECK(subtree.status());
    random_bytes += EncodedBytes(*subtree);
  }
  sample[kRandomMs] = random_timer.Seconds() * 1e3;
  sample[kRandomKbs] = KbPerSec(random_bytes, sample[kRandomMs] / 1e3);

  sample[kRanges] = static_cast<double>(store->range_manager().range_count());
  sample[kEntries] = static_cast<double>(
      point.mode == IndexMode::kFullIndex ? store->full_index_size()
                                          : store->range_index().size());
  sample[kLiveNodes] = static_cast<double>(store->live_node_count());
  sample[kLocatePerRead] =
      static_cast<double>(store->stats().locate_scan_tokens - locate_before) /
      kRandomReads;
  const PartialIndexStats& ps = store->partial_index().stats();
  sample[kHitPct] = ps.lookups == 0 ? 0
                                    : 100.0 * static_cast<double>(ps.hits) /
                                          static_cast<double>(ps.lookups);
  sample[kEvictions] =
      static_cast<double>(store->pager()->pool_stats().evictions);
  return sample;
}

// Runs point `index` in a fresh process of this binary (same argv, so
// the same point list), which writes its Sample to the pipe.
bool RunChild(size_t index, char** argv, Sample* sample) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    setenv("LAXML_BENCH_ONLY", std::to_string(index).c_str(), 1);
    execv("/proc/self/exe", argv);
    _exit(127);
  }
  close(fds[1]);
  std::string bytes;
  char buf[512];
  ssize_t n;
  while (pid > 0 && (n = read(fds[0], buf, sizeof(buf))) > 0) {
    bytes.append(buf, n);
  }
  close(fds[0]);
  int wstatus = 0;
  if (pid < 0 || waitpid(pid, &wstatus, 0) != pid || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0 || bytes.size() != sizeof(Sample)) {
    return false;
  }
  std::memcpy(sample->data(), bytes.data(), sizeof(Sample));
  return true;
}

struct Spread {
  double median, min, max;
};

Spread SpreadOf(const std::vector<Sample>& samples, int field) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(s[field]);
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return {(v[(n - 1) / 2] + v[n / 2]) / 2, v.front(), v.back()};
}

void PrintTable(const std::vector<Point>& points,
                const std::vector<std::vector<Sample>>& samples) {
  const char* group = "";
  for (size_t i = 0; i < points.size(); ++i) {
    if (std::strcmp(points[i].group, group) != 0) {
      group = points[i].group;
      std::printf("\n--- %s ---\n%-46s %-26s %-26s %-26s %8s %8s %9s %6s\n",
                  group, "point", "insert kb/s", "seq. scan kb/s",
                  "random reads kb/s", "#ranges", "#entries", "tok/read",
                  "hit%");
    }
    std::printf("%-46s", points[i].label.c_str());
    for (Field f : {kInsertKbs, kScanKbs, kRandomKbs}) {
      const Spread s = SpreadOf(samples[i], f);
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.0f [%.0f-%.0f]", s.median, s.min,
                    s.max);
      std::printf(" %-26s", cell);
    }
    const Sample& counts = samples[i].front();  // counts repeat exactly
    std::printf(" %8.0f %8.0f %9.1f %5.1f%%\n", counts[kRanges],
                counts[kEntries], counts[kLocatePerRead], counts[kHitPct]);
  }
}

// One row per point: its configuration, then every field as median, min
// and max (a count's min equals its max).
void AddJsonRows(const std::vector<Point>& points,
                 const std::vector<std::vector<Sample>>& samples,
                 bench::JsonReport* report) {
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"label\": \"%s\", \"index_mode\": \"%s\", "
                  "\"max_range_bytes\": %u, \"partial_capacity\": %zu, "
                  "\"zipf\": %.1f, \"reps\": %zu",
                  p.label.c_str(), IndexModeName(p.mode), p.max_range_bytes,
                  p.partial_capacity, p.zipf, samples[i].size());
    std::string fields = buf;
    for (int f = 0; f < kFieldCount; ++f) {
      const Spread s = SpreadOf(samples[i], f);
      std::snprintf(buf, sizeof(buf),
                    ", \"%s\": {\"median\": %.10g, \"min\": %.10g, "
                    "\"max\": %.10g}",
                    kFieldNames[f], s.median, s.min, s.max);
      fields += buf;
    }
    report->AddFieldsRow(p.group, fields);
  }
}

// Count checks on the Table-5 rows (the first four points), read from
// the first rep: counts repeat exactly.
bool ShapeHolds(const std::vector<std::vector<Sample>>& samples) {
  auto count = [&](size_t row, Field f) { return samples[row].front()[f]; };
  const size_t full = 0, granular = 1, coarse = 2, partial = 3;
  struct Check {
    bool ok;
    const char* what;
  } checks[] = {
      {count(partial, kHitPct) > 0, "coarse+partial hit% > 0"},
      {count(partial, kLocatePerRead) < count(coarse, kLocatePerRead),
       "coarse+partial locate tokens/read < coarse's"},
      {count(full, kEntries) == count(full, kLiveNodes),
       "full index #entries == live nodes"},
      {count(granular, kRanges) > count(coarse, kRanges),
       "granular #ranges > coarse #ranges"},
      {count(full, kEvictions) == 0,
       "full index (largest store) evicts no pool page"},
  };
  bool holds = true;
  std::printf("\n");
  for (const Check& c : checks) {
    std::printf("shape check %-48s %s\n", c.what, c.ok ? "ok" : "FAILED");
    holds = holds && c.ok;
  }
  return holds;
}

int Main(int argc, char** argv) {
  int reps = 1;
  bool sweep = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc && reps > 0; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      reps = 0;
    }
  }
  if (reps < 1) {
    std::fprintf(stderr,
                 "usage: bench_table5 [--reps N] [--sweep] [--json PATH]\n");
    return 2;
  }
  const std::vector<Point> points = Points(sweep);

  // Child mode: run exactly one point and write its Sample to stdout.
  if (const char* only = std::getenv("LAXML_BENCH_ONLY")) {
    const Sample sample = RunPoint(points.at(std::strtoul(only, nullptr, 10)));
    return std::fwrite(sample.data(), sizeof(Sample), 1, stdout) == 1 ? 0 : 1;
  }

  std::printf(
      "=== Table 5: Lazy indexing in XML storage (%d orders x %d items, "
      "%d scans, %d random reads; median [min-max] of %d reps) ===\n",
      kOrders, kItemsPerOrder, kSeqScans, kRandomReads, reps);
  std::vector<std::vector<Sample>> samples(points.size());
  for (int rep = 0; rep < reps; ++rep) {
    std::fprintf(stderr, "rep %d/%d\n", rep + 1, reps);
    for (size_t i = 0; i < points.size(); ++i) {
      const size_t index = (rep + i) % points.size();
      Sample sample;
      if (!RunChild(index, argv, &sample)) {
        std::fprintf(stderr, "point %zu (%s) failed\n", index,
                     points[index].label.c_str());
        return 1;
      }
      samples[index].push_back(sample);
    }
  }
  PrintTable(points, samples);

  if (json_path != nullptr) {
    bench::JsonReport report("bench_table5");
    report.AddMeta("orders", std::to_string(kOrders));
    report.AddMeta("items_per_order", std::to_string(kItemsPerOrder));
    report.AddMeta("seq_scans", std::to_string(kSeqScans));
    report.AddMeta("random_reads", std::to_string(kRandomReads));
    report.AddMeta("pool_frames", std::to_string(kPoolFrames));
    report.AddMeta("reps", std::to_string(reps));
    AddJsonRows(points, samples, &report);
    if (!report.WriteTo(json_path)) return 1;
  }
  return ShapeHolds(samples) ? 0 : 1;
}

}  // namespace
}  // namespace laxml

int main(int argc, char** argv) { return laxml::Main(argc, argv); }
