// XPath evaluation over the store: the query layer's entry point and
// planner. There is one engine, EvaluateXPathStreaming
// (query/xpath_stream.h), and three plans:
//
//   structural-join  a named child/descendant path whose tags are all
//                    warm in the lazy structural index: posting-list
//                    joins, no scan;
//   seeded-scan      a path that starts with such steps, warm: their
//                    join picks the subtrees, and the scan below runs
//                    only inside them;
//   stream-scan      everything else — a leading wildcard, kind test,
//                    attribute or [n] step, cold tags, an index that is
//                    off: one pass over the token cursor in
//                    O(depth × steps) memory plus the matches a pending
//                    predicate holds back.
// Both scans skip subtrees nothing can match in.
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
