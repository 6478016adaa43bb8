// Quickstart: open a store, load XML, look around, update it through
// the paper's Table-1 interface, and read everything back.
//
//   ./quickstart [path/to/store.db]

#include <cstdio>
#include <string>

#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "query/xpath_eval.h"
#include "store/store.h"
#include "xml/serializer.h"
#include "xml/tokenizer.h"

namespace {
#define CHECK_OK(expr)                                                 \
  do {                                                                 \
    ::laxml::Status _st = (expr);                                      \
    if (!_st.ok()) {                                                   \
      std::fprintf(stderr, "error at %s:%d: %s\n", __FILE__, __LINE__, \
                   _st.ToString().c_str());                            \
      return 1;                                                        \
    }                                                                  \
  } while (0)
}  // namespace

int main(int argc, char** argv) {
  using namespace laxml;

  // 1. Open (or create) a store. The default configuration is the
  //    paper's recommended one: lazy Range Index + Partial Index.
  StoreOptions options;
  std::unique_ptr<Store> store;
  if (argc > 1) {
    auto opened = Store::Open(argv[1], options);
    CHECK_OK(opened.status());
    store = std::move(opened).value();
  } else {
    auto opened = Store::OpenInMemory(options);
    CHECK_OK(opened.status());
    store = std::move(opened).value();
  }

  // 2. Parse some XML into the flat token representation and load it.
  auto tokens = ParseFragment(
      "<tickets>"
      "<ticket id=\"t1\"><hour>15</hour><name>Paul</name></ticket>"
      "</tickets>");
  CHECK_OK(tokens.status());
  auto root = store->InsertTopLevel(*tokens);
  CHECK_OK(root.status());
  std::printf("loaded document, root node id = %llu\n",
              (unsigned long long)*root);

  // 3. Query with the XPath subset.
  XPathEvaluator xpath(store.get());
  auto hours = xpath.Evaluate("/tickets/ticket/hour");
  CHECK_OK(hours.status());
  for (NodeId id : *hours) {
    auto value = xpath.StringValue(id);
    CHECK_OK(value.status());
    std::printf("ticket hour: %s (node %llu)\n", value->c_str(),
                (unsigned long long)id);
  }

  // 4. Update through the Table-1 interface: append another ticket,
  //    then fix the first ticket's hour.
  auto more = ParseFragment(
      "<ticket id=\"t2\"><hour>16</hour><name>Ada</name></ticket>");
  CHECK_OK(more.status());
  CHECK_OK(store->InsertIntoLast(*root, *more).status());

  auto hour_node = (*hours)[0];
  auto fixed = ParseFragment("<hour>17</hour>");
  CHECK_OK(fixed.status());
  CHECK_OK(store->ReplaceNode(hour_node, *fixed).status());

  // The same evaluator sees the updates: every query reads the live
  // store.
  auto late = xpath.Evaluate("//ticket[hour='16']/@id");
  CHECK_OK(late.status());
  for (NodeId id : *late) {
    auto value = xpath.StringValue(id);
    CHECK_OK(value.status());
    std::printf("ticket at 16:00: %s\n", value->c_str());
  }

  // 5. Read everything back as XML.
  auto all = store->Read();
  CHECK_OK(all.status());
  auto xml = SerializeTokens(*all);
  CHECK_OK(xml.status());
  std::printf("\nfinal document:\n%s\n", xml->c_str());

  // 6. Peek at the adaptive machinery.
  std::printf("\nstore internals:\n");
  std::printf("  ranges: %llu (one per insert unit, plus splits)\n",
              (unsigned long long)store->range_manager().range_count());
  std::printf("%s", store->DebugRangeTable().c_str());
  obs::Snapshot metrics;
  obs::CollectStoreMetrics(*store, &metrics);
  std::printf("\nmetrics:\n%s", obs::RenderTable(metrics).c_str());
  return 0;
}
