// An XMark-flavored auction site: generate a document, validate it
// against a schema (PSVI annotation), run XPath queries, and process a
// stream of bids as XUpdate operations — a read/update mix on one store.
//
//   ./auction_site [scale]

#include <cstdio>
#include <cstdlib>

#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "query/xpath_eval.h"
#include "store/store.h"
#include "workload/doc_generator.h"
#include "xml/schema.h"
#include "xml/serializer.h"
#include "xml/tokenizer.h"

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

int main(int argc, char** argv) {
  using namespace laxml;
  int scale = argc > 1 ? std::atoi(argv[1]) : 60;

  // Generate and schema-validate the site document. The PSVI
  // annotations are stored with the tokens, so validation happens once.
  Random rng(88);
  TokenSequence site = GenerateAuctionDocument(&rng, scale);
  Schema schema;
  schema.DeclareElement("quantity", XsType::kInteger);
  schema.DeclareElement("initial", XsType::kInteger);
  schema.DeclareElement("increase", XsType::kInteger);
  schema.DeclareElement("creditcard", XsType::kInteger);
  CHECK_OK(schema.ValidateAndAnnotate(&site));

  StoreOptions options;  // lazy range + partial index
  auto opened = Store::OpenInMemory(options);
  CHECK_OK(opened.status());
  auto store = std::move(opened).value();
  CHECK_OK(store->InsertTopLevel(site).status());
  std::printf("loaded auction site: %llu nodes, %llu ranges\n",
              (unsigned long long)store->live_node_count(),
              (unsigned long long)store->range_manager().range_count());

  XPathEvaluator xpath(store.get());

  // Query 1: all open auctions.
  auto auctions = xpath.Evaluate("/site/open_auctions/open_auction");
  CHECK_OK(auctions.status());
  std::printf("open auctions: %zu\n", auctions->size());

  // Query 2: items in the books category, anywhere.
  auto books = xpath.Evaluate("//item[@category='books']/name");
  CHECK_OK(books.status());
  std::printf("book items:    %zu\n", books->size());
  for (size_t i = 0; i < books->size() && i < 3; ++i) {
    auto name = xpath.StringValue((*books)[i]);
    CHECK_OK(name.status());
    std::printf("  - %s\n", name->c_str());
  }

  // Query 3: people with a credit card on file.
  auto buyers = xpath.Evaluate("//person[creditcard]/@id");
  CHECK_OK(buyers.status());
  std::printf("registered buyers: %zu\n", buyers->size());

  // Bid stream: append <bidder> fragments into random open auctions —
  // the XUpdate half of the workload.
  int bids = scale * 4;
  for (int i = 0; i < bids; ++i) {
    NodeId auction = (*auctions)[rng.Uniform(auctions->size())];
    auto bid = ParseFragment(
        "<bidder><personref>person" +
        std::to_string(rng.Uniform(static_cast<uint64_t>(scale))) +
        "</personref><increase>" + std::to_string(1 + rng.Uniform(25)) +
        "</increase></bidder>");
    CHECK_OK(bid.status());
    CHECK_OK(store->InsertIntoLast(auction, *bid).status());
  }
  std::printf("placed %d bids\n", bids);

  // Re-query after the updates: every query reads the live store.
  auto increases = xpath.Evaluate("//open_auction[1]//increase");
  CHECK_OK(increases.status());
  std::printf("bids on the first auction now: %zu\n", increases->size());

  CHECK_OK(store->CheckIntegrity());
  obs::Snapshot metrics;
  obs::CollectStoreMetrics(*store, &metrics);
  std::printf("\nstore after the session:\n%s",
              obs::RenderTable(metrics).c_str());
  const PartialIndexStats& ps = store->partial_index().stats();
  std::printf("partial index earned %llu hits from %llu lookups (%.0f%%)\n",
              (unsigned long long)ps.hits, (unsigned long long)ps.lookups,
              ps.lookups ? 100.0 * ps.hits / ps.lookups : 0.0);
  return 0;
}
