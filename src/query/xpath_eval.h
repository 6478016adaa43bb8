// XPath evaluation over the store: the query layer's entry point. There
// is one engine, EvaluateXPathStreaming, and one planner, PlanXPath
// (both in query/xpath_stream.h, whose header comment says which paths
// take which plan):
//
//   structural-join  a path the structural-index gate accepts, its
//                    tags warm in the lazy structural index: answered
//                    by posting-list joins, no scan;
//   stream-scan      every other path (a cold tag, a path the gate
//                    refuses, an index that is off): one pass over the
//                    token cursor in O(depth × steps) memory plus the
//                    matches a pending predicate holds back, skipping
//                    subtrees nothing can match in. Only a cold tag's
//                    scan warms the index.
//
// Every call reads the live store, so results always reflect the
// latest mutation. Semantics are XPath node-set semantics: document
// order, duplicates removed, existential '=' comparisons, per-context
// positions.

#ifndef LAXML_QUERY_XPATH_EVAL_H_
#define LAXML_QUERY_XPATH_EVAL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/xpath_ast.h"
#include "store/store.h"

namespace laxml {

/// Evaluates XPath expressions against a Store.
class XPathEvaluator {
 public:
  explicit XPathEvaluator(Store* store) : store_(store) {}

  /// Evaluates a parsed path; returns matching node ids in document
  /// order, duplicate-free.
  Result<std::vector<NodeId>> Evaluate(const XPathPath& path);

  /// Parses and evaluates.
  Result<std::vector<NodeId>> Evaluate(std::string_view expr);

  /// XPath string-value of a node (concatenated descendant text for
  /// elements; the value itself for text/comment/attribute nodes).
  /// Reads only the node's subtree.
  Result<std::string> StringValue(NodeId id);

 private:
  Store* store_;
};

}  // namespace laxml

#endif  // LAXML_QUERY_XPATH_EVAL_H_
