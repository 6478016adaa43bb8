// AST for the XPath 1.0 subset the query layer evaluates over the
// store: child / descendant-or-self axes, attribute steps, name and kind
// tests, and predicates (position, existence, string-equality). This is
// the XPath slice the paper's citations ([5], [9]) evaluate against id /
// containment indexes; here it runs over the token stream + lazy store
// reads.
//
// Grammar (informal):
//   path      := '/'? step ( ('/' | '//') step )*   |  '//' step ...
//   step      := '@'? nodetest predicate*
//   nodetest  := NAME | '*' | 'text()' | 'node()' | 'comment()'
//   predicate := '[' INTEGER ']'
//              | '[' relpath ']'
//              | '[' relpath '=' literal ']'
//   relpath   := step ( ('/' | '//') step )*        (may start with '@')
//
// An INTEGER must fit 64 bits, and predicates nest at most
// kMaxStreamSteps deep.

#ifndef LAXML_QUERY_XPATH_AST_H_
#define LAXML_QUERY_XPATH_AST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace laxml {

/// Most steps one evaluation handles, predicate paths' steps included
/// (query/xpath_stream.h), and so the deepest predicate nesting the
/// parser accepts.
inline constexpr size_t kMaxStreamSteps = 64;

/// Axis of a step. '//' is modeled as kDescendant on the following step.
enum class XPathAxis {
  kChild,
  kDescendant,  ///< descendant-or-self::node()/child:: in full XPath.
  kAttribute,
};

/// What kind of node a step selects.
enum class NodeTestKind {
  kName,      ///< element (or attribute, on the attribute axis) by name
  kWildcard,  ///< *
  kText,      ///< text()
  kComment,   ///< comment()
  kAnyNode,   ///< node()
};

struct XPathStep;

/// A relative path (used inside predicates and as the query itself).
struct XPathPath {
  bool absolute = false;  ///< Leading '/': anchored at the top level.
  std::vector<XPathStep> steps;

  std::string ToString() const;
};

/// A step predicate.
struct XPathPredicate {
  enum class Kind {
    kPosition,   ///< [3]
    kExists,     ///< [path]
    kEquals,     ///< [path = 'literal']
  };
  Kind kind = Kind::kExists;
  uint64_t position = 0;       ///< kPosition
  XPathPath path;              ///< kExists / kEquals
  std::string literal;         ///< kEquals

  std::string ToString() const;
};

/// One location step.
struct XPathStep {
  XPathAxis axis = XPathAxis::kChild;
  NodeTestKind test = NodeTestKind::kName;
  std::string name;  ///< kName only.
  /// For '//@name': the attribute axis applied to every descendant
  /// element rather than only to the context node.
  bool descendant_attr = false;
  std::vector<XPathPredicate> predicates;

  std::string ToString() const;
};

}  // namespace laxml

#endif  // LAXML_QUERY_XPATH_AST_H_
