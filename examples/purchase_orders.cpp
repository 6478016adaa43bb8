// The paper's motivating workload (Section 4.1): a purchase-order feed
// that keeps appending <purchase-order> elements as the last child of
// the root. This example runs the same feed against the eager Full
// Index, the lazy Range Index alone and the lazy Range Index with the
// Partial Index, and prints what each had to do — making "the importance of being
// lazy" visible in the counters rather than just in wall-clock numbers.
//
//   ./purchase_orders [orders]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "store/store.h"
#include "workload/doc_generator.h"

namespace {
#define CHECK_OK(expr)                                                 \
  do {                                                                 \
    ::laxml::Status _st = (expr);                                      \
    if (!_st.ok()) {                                                   \
      std::fprintf(stderr, "error at %s:%d: %s\n", __FILE__, __LINE__, \
                   _st.ToString().c_str());                            \
      std::exit(1);                                                    \
    }                                                                  \
  } while (0)
}  // namespace

namespace laxml {

// One store configuration: the index mode and the Partial Index size.
struct Config {
  const char* label;
  IndexMode mode;
  size_t partial_index_capacity;
};

constexpr Config kConfigs[] = {
    {"full index", IndexMode::kFullIndex, 0},
    {"range index", IndexMode::kRangeIndex, 0},
    {"range index + partial index", IndexMode::kRangeIndex, 1 << 16},
};

void RunFeed(const Config& config, int orders) {
  StoreOptions options;
  options.index_mode = config.mode;
  options.partial_index_capacity = config.partial_index_capacity;
  auto opened = Store::OpenInMemory(options);
  CHECK_OK(opened.status());
  auto store = std::move(opened).value();

  auto root = store->InsertTopLevel(
      {Token::BeginElement("purchase-orders"), Token::EndElement()});
  CHECK_OK(root.status());

  Random rng(2005);
  for (int i = 0; i < orders; ++i) {
    CHECK_OK(store
                 ->InsertIntoLast(*root,
                                  GeneratePurchaseOrder(&rng, i + 1, 10))
                 .status());
  }
  // A few repeated reads of the same order — the partial index's bread
  // and butter.
  for (int pass = 0; pass < 3; ++pass) {
    CHECK_OK(store->Read(2).status());  // first order's subtree
  }

  const StoreStats& stats = store->stats();
  std::printf("\n--- %s ---\n", config.label);
  std::printf("  nodes inserted:            %llu\n",
              (unsigned long long)stats.nodes_inserted);
  std::printf("  ranges (index entries):    %llu\n",
              (unsigned long long)store->range_manager().range_count());
  std::printf("  full-index maintenance:    %llu ops\n",
              (unsigned long long)stats.full_index_maintenance);
  std::printf("  full-index entries:        %llu\n",
              (unsigned long long)store->full_index_size());
  std::printf("  locate scans (tokens):     %llu\n",
              (unsigned long long)stats.locate_scan_tokens);
  const PartialIndexStats& ps = store->partial_index().stats();
  std::printf("  partial index: %zu entries, %llu/%llu lookup hits\n",
              store->partial_index().size(), (unsigned long long)ps.hits,
              (unsigned long long)ps.lookups);
}

}  // namespace laxml

int main(int argc, char** argv) {
  int orders = argc > 1 ? std::atoi(argv[1]) : 500;
  std::printf(
      "purchase-order feed: %d x insertIntoLast(root, <purchase-order>)\n",
      orders);
  std::printf(
      "\nThe eager store indexes every node of every order the moment it"
      "\narrives; the lazy store adds one range per insert, and with the"
      "\npartial index memoizes the root's end position after the first"
      "\nlocate.\n");
  for (const laxml::Config& config : laxml::kConfigs) {
    laxml::RunFeed(config, orders);
  }
  std::printf(
      "\nTakeaway: for this usage pattern the vast majority of full-index"
      "\nentries are never used — the paper's argument for being lazy.\n");
  return 0;
}
