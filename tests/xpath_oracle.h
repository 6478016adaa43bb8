// Reference XPath evaluator for tests: materializes the whole store as a
// node table (ids, kinds, names, values, parent/subtree extents) and
// applies each location step set-wise with standard XPath node-set
// semantics — document order, duplicates removed, existential '='
// comparisons, per-context positions. It is deliberately the naive
// algorithm: O(live nodes) memory, one snapshot per construction, and
// it reads the store through ReferenceRead (test_util.h), which decodes
// each range whole, rather than the TokenCursor every engine read walks,
// so the two share no evaluation or walking code.
//
// Usage: XPathOracle oracle(store); oracle.Evaluate("//a[b]");
// Construct a new oracle after every store mutation.

#ifndef LAXML_TESTS_XPATH_ORACLE_H_
#define LAXML_TESTS_XPATH_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "query/xpath_ast.h"
#include "query/xpath_parser.h"
#include "store/store.h"
#include "test_util.h"

namespace laxml {
namespace testing {

class XPathOracle {
 public:
  /// Snapshots the store's current content (a failed read leaves the
  /// oracle empty and fails the test).
  explicit XPathOracle(Store* store) {
    std::vector<NodeId> ids;
    auto tokens = ReferenceRead(*store, &ids);
    if (!tokens.ok()) {
      ADD_FAILURE() << "oracle snapshot: " << tokens.status().ToString();
      return;
    }
    std::vector<uint32_t> stack;  // open scope node indices
    for (size_t i = 0; i < tokens->size(); ++i) {
      const Token& t = (*tokens)[i];
      if (t.BeginsNode()) {
        const uint32_t index = static_cast<uint32_t>(nodes_.size());
        nodes_.push_back(SNode{ids[i], t.type, t.name, t.value,
                               stack.empty() ? -1
                                             : static_cast<int32_t>(
                                                   stack.back()),
                               index + 1});
        if (t.OpensScope()) stack.push_back(index);
      } else if (t.ClosesScope()) {
        if (stack.empty()) {
          ADD_FAILURE() << "oracle snapshot: negative nesting";
          return;
        }
        nodes_[stack.back()].subtree_end =
            static_cast<uint32_t>(nodes_.size());
        stack.pop_back();
      }
    }
    if (!stack.empty()) ADD_FAILURE() << "oracle snapshot: unclosed scope";
  }

  /// Number of nodes in the snapshot.
  size_t size() const { return nodes_.size(); }

  /// Matching node ids in document order, duplicate-free.
  std::vector<NodeId> Evaluate(const XPathPath& path) const {
    std::vector<NodeId> ids;
    for (int64_t idx : EvaluateRelative(path, kRootContext)) {
      ids.push_back(nodes_[static_cast<uint32_t>(idx)].id);
    }
    return ids;
  }

  Result<std::vector<NodeId>> Evaluate(std::string_view expr) const {
    LAXML_ASSIGN_OR_RETURN(XPathPath path, ParseXPath(expr));
    return Evaluate(path);
  }

 private:
  /// Virtual-root context (parent of the top-level sequence).
  static constexpr int64_t kRootContext = -1;

  struct SNode {
    NodeId id;
    TokenType type;
    std::string name;
    std::string value;
    int32_t parent;  ///< Index of parent; -1 for top level.
    /// One past the last descendant's NODE index: the descendants of
    /// nodes_[i] are exactly nodes_[i+1 .. subtree_end), and
    /// subtree_end == i + 1 for leaves. This is a node-count
    /// convention — distinct from TokenSequence's SubtreeEnd, which is
    /// a TOKEN index one past the subtree's closing token (end tokens
    /// begin no node, so they exist only in the token convention; see
    /// xml/token_sequence.h and subtree_end_test).
    uint32_t subtree_end;
  };

  bool TestMatches(const XPathStep& step, const SNode& node) const {
    if (step.axis == XPathAxis::kAttribute) {
      if (node.type != TokenType::kBeginAttribute) return false;
      return step.test == NodeTestKind::kWildcard || node.name == step.name;
    }
    // Non-attribute axes never select attribute nodes.
    if (node.type == TokenType::kBeginAttribute) return false;
    switch (step.test) {
      case NodeTestKind::kName:
        return node.type == TokenType::kBeginElement &&
               node.name == step.name;
      case NodeTestKind::kWildcard:
        return node.type == TokenType::kBeginElement;
      case NodeTestKind::kText:
        return node.type == TokenType::kText;
      case NodeTestKind::kComment:
        return node.type == TokenType::kComment;
      case NodeTestKind::kAnyNode:
        return true;
    }
    return false;
  }

  std::string StringValueOf(uint32_t index) const {
    const SNode& node = nodes_[index];
    if (node.type != TokenType::kBeginElement &&
        node.type != TokenType::kBeginDocument) {
      return node.value;
    }
    std::string out;
    for (uint32_t i = index + 1; i < node.subtree_end; ++i) {
      if (nodes_[i].type == TokenType::kText) out += nodes_[i].value;
    }
    return out;
  }

  std::vector<int64_t> EvaluateRelative(const XPathPath& path,
                                        int64_t context) const {
    std::vector<int64_t> frontier{context};
    for (const XPathStep& step : path.steps) {
      frontier = ApplyStep(step, frontier);
      if (frontier.empty()) break;
    }
    return frontier;
  }

  bool PredicatesHold(const XPathStep& step, uint32_t candidate,
                      uint64_t position) const {
    for (const XPathPredicate& pred : step.predicates) {
      switch (pred.kind) {
        case XPathPredicate::Kind::kPosition:
          if (position != pred.position) return false;
          break;
        case XPathPredicate::Kind::kExists:
          if (EvaluateRelative(pred.path, candidate).empty()) return false;
          break;
        case XPathPredicate::Kind::kEquals: {
          bool any = false;
          for (int64_t h : EvaluateRelative(pred.path, candidate)) {
            if (StringValueOf(static_cast<uint32_t>(h)) == pred.literal) {
              any = true;
              break;
            }
          }
          if (!any) return false;
          break;
        }
      }
    }
    return true;
  }

  /// Applies one step to a sorted frontier of node indices (the virtual
  /// root is index -1).
  std::vector<int64_t> ApplyStep(const XPathStep& step,
                                 const std::vector<int64_t>& frontier) const {
    std::vector<int64_t> out;
    auto consider = [&](uint32_t idx, uint64_t* position) {
      if (!TestMatches(step, nodes_[idx])) return;
      ++*position;
      if (PredicatesHold(step, idx, *position)) {
        out.push_back(static_cast<int64_t>(idx));
      }
    };
    for (int64_t ctx : frontier) {
      uint64_t position = 0;
      uint32_t begin, end;
      if (ctx == kRootContext) {
        begin = 0;
        end = static_cast<uint32_t>(nodes_.size());
      } else {
        begin = static_cast<uint32_t>(ctx) + 1;
        end = nodes_[static_cast<uint32_t>(ctx)].subtree_end;
      }
      if (step.axis == XPathAxis::kChild ||
          (step.axis == XPathAxis::kAttribute && !step.descendant_attr)) {
        // Direct children only.
        const int32_t parent =
            ctx == kRootContext ? -1 : static_cast<int32_t>(ctx);
        uint32_t i = begin;
        while (i < end) {
          if (nodes_[i].parent == parent) {
            consider(i, &position);
            i = nodes_[i].subtree_end;  // skip the child's subtree
          } else {
            ++i;
          }
        }
      } else {
        // Descendants (elements/text/comments at any depth below ctx),
        // including '//@attr'.
        for (uint32_t i = begin; i < end; ++i) consider(i, &position);
      }
    }
    // Document order + dedup (frontiers can overlap under '//').
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  std::vector<SNode> nodes_;
};

}  // namespace testing
}  // namespace laxml

#endif  // LAXML_TESTS_XPATH_ORACLE_H_
