// Ablation D — read/update mix crossover: "a store that achieves both
// optimally is a utopia ... we take a middle approach, and try to
// optimize one or the other depending on the application load"
// (Section 2.1). This bench sweeps the update fraction of a mixed
// workload and reports ops/s for the eager full index, the lazy coarse
// range index alone and with the partial index, locating the crossover.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "store/store.h"
#include "workload/doc_generator.h"
#include "workload/zipf.h"

namespace laxml {
namespace {

using bench::TempDb;
using bench::Timer;

constexpr int kOrders = 100;
constexpr int kItemsPerOrder = 30;
constexpr int kOps = 2500;

// One store configuration: the index mode and the Partial Index size.
struct Config {
  const char* label;
  IndexMode mode;
  size_t partial_index_capacity;
};

constexpr Config kConfigs[] = {
    {"full", IndexMode::kFullIndex, 0},
    {"range", IndexMode::kRangeIndex, 0},
    {"range+partial", IndexMode::kRangeIndex, 1 << 16},
};

double RunMix(const Config& config, double update_fraction) {
  TempDb db("mix");
  StoreOptions options;
  options.index_mode = config.mode;
  options.partial_index_capacity = config.partial_index_capacity;
  options.pager.pool_frames = 4096;
  auto opened = Store::Open(db.path(), options);
  BENCH_CHECK(opened.status());
  auto store = std::move(opened).value();

  Random rng(17);
  auto root = store->InsertTopLevel(
      {Token::BeginElement("purchase-orders"), Token::EndElement()});
  BENCH_CHECK(root.status());
  for (int i = 0; i < kOrders; ++i) {
    BENCH_CHECK(
        store
            ->InsertIntoLast(*root, GeneratePurchaseOrder(&rng, i + 1,
                                                          kItemsPerOrder))
            .status());
  }
  std::vector<NodeId> order_ids =
      bench::ElementIds(store.get(), "purchase-order");
  ZipfGenerator zipf(order_ids.size(), 0.9, 31);
  Random op_rng(1234);
  uint64_t order_counter = kOrders;

  Timer timer;
  for (int i = 0; i < kOps; ++i) {
    if (op_rng.NextDouble() < update_fraction) {
      // Update: append a fresh order (the paper's motivating op).
      BENCH_CHECK(store
                      ->InsertIntoLast(
                          *root, GeneratePurchaseOrder(&op_rng,
                                                       ++order_counter, 4))
                      .status());
    } else {
      // Read a random existing order subtree.
      NodeId target = order_ids[zipf.Next()];
      BENCH_CHECK(store->Read(target).status());
    }
  }
  return kOps / timer.Seconds();
}

}  // namespace
}  // namespace laxml

int main() {
  std::printf(
      "=== Ablation D: read/update mix crossover (%d ops over %d orders) "
      "===\n",
      laxml::kOps, laxml::kOrders);
  std::printf("%10s", "update%");
  for (const laxml::Config& config : laxml::kConfigs) {
    std::printf(" %20s", (std::string(config.label) + " (op/s)").c_str());
  }
  std::printf(" %14s\n", "winner");
  laxml::RunMix(laxml::kConfigs[0], 0.5);  // warm-up
  for (double frac : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::printf("%9.0f%%", frac * 100);
    const laxml::Config* winner = nullptr;
    double best = 0;
    for (const laxml::Config& config : laxml::kConfigs) {
      const double ops = laxml::RunMix(config, frac);
      std::printf(" %20.0f", ops);
      if (ops > best) {
        best = ops;
        winner = &config;
      }
    }
    std::printf(" %14s\n", winner->label);
  }
  std::printf(
      "\nExpected: the lazy store wins across the mix and its margin "
      "widens\nwith the update share (eager index maintenance is pure "
      "overhead there);\nany full-index advantage is confined to "
      "read-only workloads.\n");
  return 0;
}
