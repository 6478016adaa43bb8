// SharedStore read scaling: read throughput of the real engine in
// kRangeWithPartial mode as reader threads scale, exercising the shared
// latch, the sharded partial index and the concurrent buffer pool. On a
// multi-core host read-only throughput should scale near-linearly; the
// 1-thread row doubles as the shared-path overhead measurement. A
// single-core host cannot show the scaling.
//
//   bench_concurrency [--ops N] [--json out.json]

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "concurrency/shared_store.h"
#include "store/store.h"
#include "workload/zipf.h"
#include "xml/token_sequence.h"

namespace laxml {
namespace {

using bench::Timer;

constexpr int kReadDocNodes = 2000;  // working-set size

/// SharedStore read-only throughput at `threads` readers over a
/// kRangeWithPartial store with `node_ids` live nodes. Returns ops/s.
double RunSharedReads(SharedStore* shared,
                      const std::vector<NodeId>& node_ids, int threads,
                      long ops_per_thread) {
  std::atomic<int> failures{0};
  Timer timer;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Zipf-skewed targets: the hot set stays memoized, so this is
      // the partial-index + buffer-pool concurrent hit path.
      ZipfGenerator zipf(node_ids.size(), 0.8,
                         static_cast<uint64_t>(17 + t));
      for (long i = 0; i < ops_per_thread; ++i) {
        NodeId target = node_ids[zipf.Next() % node_ids.size()];
        auto r = shared->Read(target);
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  double seconds = timer.Seconds();
  if (failures.load() != 0) {
    std::fprintf(stderr, "shared read failures: %d\n", failures.load());
    std::exit(1);
  }
  return static_cast<double>(threads) *
         static_cast<double>(ops_per_thread) / seconds;
}

}  // namespace
}  // namespace laxml

int main(int argc, char** argv) {
  using namespace laxml;

  long read_ops = 20000;  // per thread
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      read_ops = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  bench::JsonReport report("bench_concurrency");
  StoreOptions options;
  options.index_mode = IndexMode::kRangeWithPartial;
  auto opened = Store::OpenInMemory(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open store: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  SharedStore shared(std::move(opened).value());
  std::vector<NodeId> node_ids;
  {
    Store* store = shared.UnsafeStore();
    SequenceBuilder builder;
    builder.BeginElement("doc");
    for (int i = 0; i < kReadDocNodes; ++i) {
      builder.BeginElement("n")
          .Attribute("i", std::to_string(i))
          .Text("value-" + std::to_string(i))
          .End();
    }
    builder.End();
    auto root = store->InsertTopLevel(builder.Build());
    if (!root.ok()) {
      std::fprintf(stderr, "populate: %s\n",
                   root.status().ToString().c_str());
      return 1;
    }
    // Every element node of the document is a read target.
    for (NodeId id = *root; id < *root + 1 + kReadDocNodes; ++id) {
      node_ids.push_back(id);
    }
  }
  std::printf(
      "=== SharedStore read scaling (kRangeWithPartial, %d nodes, "
      "%ld reads/thread, zipf 0.8) ===\n",
      kReadDocNodes, read_ops);
  std::printf("%8s %16s %10s\n", "threads", "reads/s", "scaling");
  (void)RunSharedReads(&shared, node_ids, 2, read_ops / 4);  // warm-up
  double base = 0;
  for (int threads : {1, 2, 4, 8}) {
    double ops = RunSharedReads(&shared, node_ids, threads, read_ops);
    if (threads == 1) base = ops;
    std::printf("%8d %16.0f %9.2fx\n", threads, ops,
                base > 0 ? ops / base : 0);
    report.AddThroughputRow(
        "shared_read", threads,
        static_cast<uint64_t>(threads) * static_cast<uint64_t>(read_ops),
        static_cast<double>(threads) * static_cast<double>(read_ops) / ops);
  }
  const SharedStoreStats& latch = shared.stats();
  std::printf(
      "latch acquisitions: %llu shared, %llu exclusive\n",
      static_cast<unsigned long long>(latch.shared_acquisitions),
      static_cast<unsigned long long>(latch.exclusive_acquisitions));

  if (!json_path.empty() && !report.WriteTo(json_path)) return 1;
  return 0;
}
