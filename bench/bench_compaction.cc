// Ablation G — range compaction: "We are considering more optimizations
// of the read/update/storage overhead" (paper §7). An append feed
// leaves one range per insert; CompactRanges folds the contiguous
// remnants back together. This bench measures sequential-scan and
// random-read throughput before and after compaction, plus the cost of
// the compaction pass itself.

#include <cinttypes>
#include <cstdio>
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

constexpr int kEntries = 3000;
constexpr int kRandomReads = 2500;

struct Phase {
  uint64_t ranges;
  double scan_kbs;
  double random_kbs;
};

Phase MeasurePhase(Store* store, const std::vector<NodeId>& targets) {
  Phase phase;
  phase.ranges = store->range_manager().range_count();
  uint64_t scan_bytes = 0;
  {
    auto warm = store->Read();
    BENCH_CHECK(warm.status());
    scan_bytes = EncodedBytes(*warm);
  }
  Timer scan_timer;
  for (int i = 0; i < 4; ++i) {
    BENCH_CHECK(store->Read().status());
  }
  phase.scan_kbs = KbPerSec(scan_bytes * 4, scan_timer.Seconds());

  store->mutable_partial_index().Clear();
  uint64_t read_bytes = 0;
  Timer read_timer;
  for (NodeId id : targets) {
    auto subtree = store->Read(id);
    BENCH_CHECK(subtree.status());
    read_bytes += EncodedBytes(*subtree);
  }
  phase.random_kbs = KbPerSec(read_bytes, read_timer.Seconds());
  return phase;
}

void Run() {
  TempDb db("compaction");
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  options.pager.pool_frames = 4096;
  auto opened = Store::Open(db.path(), options);
  BENCH_CHECK(opened.status());
  auto store = std::move(opened).value();

  Random rng(606);
  auto root = store->InsertTopLevel(
      {Token::BeginElement("log"), Token::EndElement()});
  BENCH_CHECK(root.status());
  for (int i = 0; i < kEntries; ++i) {
    SequenceBuilder b;
    b.BeginElement("entry")
        .Attribute("n", std::to_string(i))
        .Text(rng.NextText(30))
        .End();
    BENCH_CHECK(store->InsertIntoLast(*root, b.Build()).status());
  }
  std::vector<NodeId> entry_ids = bench::ElementIds(store.get(), "entry");
  ZipfGenerator zipf(entry_ids.size(), 0.8, 42);
  std::vector<NodeId> targets;
  for (int i = 0; i < kRandomReads; ++i) {
    targets.push_back(entry_ids[zipf.Next()]);
  }

  Phase before = MeasurePhase(store.get(), targets);
  Timer compact_timer;
  auto merges = store->CompactRanges(4096);
  BENCH_CHECK(merges.status());
  double compact_secs = compact_timer.Seconds();
  Phase after = MeasurePhase(store.get(), targets);

  std::printf("%10s %9s %14s %18s\n", "phase", "#ranges", "scan(kb/s)",
              "random reads(kb/s)");
  std::printf("%10s %9" PRIu64 " %14.1f %18.1f\n", "before", before.ranges,
              before.scan_kbs, before.random_kbs);
  std::printf("%10s %9" PRIu64 " %14.1f %18.1f\n", "after", after.ranges,
              after.scan_kbs, after.random_kbs);
  std::printf("\ncompaction: %" PRIu64 " merges in %.1f ms\n", *merges,
              compact_secs * 1000);
  std::printf(
      "\nExpected: the append feed leaves ~%d micro-ranges; compaction"
      "\ncollapses them ~100x, speeding sequential scans (fewer record"
      "\nfetches) at a modest random-read cost shift (longer in-range"
      "\nscans, which the partial index re-amortizes).\n",
      kEntries);
}

}  // namespace
}  // namespace laxml

int main() {
  std::printf("=== Ablation G: range compaction on an append feed ===\n");
  laxml::Run();
  return 0;
}
