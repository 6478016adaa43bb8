// The XPath engine: location paths evaluated in a single pass over the
// store's token cursor, with no materialized tree. This is the
// evaluation style the flat token representation exists to serve (the
// paper builds on the BEA/XQRL streaming processor's model [7], and
// cites the adaptive-streaming line of work [4]); SXSI (Arroyuelo et
// al.) runs predicates over a tag stream the same way.
//
// Scope: the whole AST — child, descendant and attribute axes,
// name/wildcard/text()/comment()/node() tests, any number of steps, and
// the three predicate kinds ([n], [path], [path='lit']), nested too.
// The per-scope state is a 64-bit mask of armed steps, so a path may
// have at most 64 steps counting every predicate path's steps; longer
// paths return NotSupported. Predicates are filters over candidate
// nodes still open on the scope stack: [n] is a per-context counter,
// [path] a pending bit the candidate's subtree may clear before its end
// token, and '=' compares the string value incrementally against the
// literal as text streams past. Matches that depend on a pending
// candidate wait in its buffer until the candidate's end decides them.
// Memory is O(depth × steps) plus those buffered matches.
//
// Planner (PlanXPath): one function picks the access path before
// anything runs, for execution and EXPLAIN alike, and it is all or
// nothing. After the step limit it asks the structural-index gate
// (StructuralIneligibilityReason) about the whole path: named child and
// descendant steps, '*' child steps between two of them, a final
// '@name' step or a final predicate-free text() child step after a
// named step, and on the named steps the predicates a semi-join over
// the postings answers: [n], [p] and [p='lit'], where p is a
// predicate-free path the join could run from the step's node, ending
// on an element or an attribute.
//   * A path the gate accepts, with every tag (its predicate paths'
//     included) warm in the store's lazy structural index, is a
//     "structural-join": posting lists joined left to right, no scan.
//     Each step's matches are filtered by its predicates: [p] keeps the
//     matches holding a p match below them (a semi-join, run right to
//     left along p), [p='lit'] first keeps the p matches whose value is
//     the literal, and [n] keeps the n-th match per context node (the
//     parent, on a child step). Values come from the entries' value
//     keys (index/structural_index.h): an attribute or a simple element
//     with a short value compares its key and reads nothing; a long
//     value's hash, when equal, is confirmed on its token (one Seek),
//     and a mixed element's string value is compared along a walk of
//     its subtree. After a final text() step, the answer is the joined
//     entries' text children: a text leaf's is located by arithmetic on
//     its entry, an empty element has none, and only a mixed element is
//     walked, child by child, skipping subtrees.
//   * A path the gate accepts with a cold tag is a "stream-scan" of the
//     whole store, whose by-product warms the path's tags.
//   * Every other path — the gate refuses it or the scan is forced — is
//     a plain "stream-scan": it looks up no tag, warms nothing and moves
//     no index counter.
//
// Every scan skips dead subtrees: a scope that opens with no armed
// step, no pending condition, no positional context counting inside
// it, no '=' capture and no warmer can contribute nothing, so the
// cursor passes it reading headers only (TokenCursor::SkipSubtree).
// Results are keyed by global token ordinal, so they come out in
// document order whichever tokens were visited.

#ifndef LAXML_QUERY_XPATH_STREAM_H_
#define LAXML_QUERY_XPATH_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "index/structural_index.h"
#include "query/xpath_ast.h"
#include "store/store.h"

namespace laxml {

/// Most steps one evaluation handles, predicate paths' steps included.
inline constexpr size_t kMaxStreamSteps = 64;

/// The structural-index gate's verdict as a static string: nullptr
/// when the whole path can be answered from the index — every step a
/// named child or descendant test or a '*' child step between two of
/// them, the last step possibly '@name' or (after a named step) a
/// child text(); no '//@attr'; predicates only on named element steps,
/// each [n], [p] or [p='lit'] as the header comment describes —
/// otherwise the first disqualifying reason ("nested predicate",
/// "predicate path not indexable", "has predicates" on a step that is
/// no named element step, "non-name node test", ...). EXPLAIN surfaces
/// this so "why did my query scan" has an answer.
const char* StructuralIneligibilityReason(const XPathPath& path);

/// The planner's verdict for one path against the store's current index
/// state: the access path, and what running it needs.
struct XPathAccessPlan {
  /// The posting lists the join of the whole path reads, in join order:
  /// each step's, then one per step of each of its [p] / [p='lit']
  /// predicate paths. Null for a '*' step (no list: the join counts it
  /// as a level), a text() step and a cold tag. Empty when the path
  /// does not join: the scan is forced or the gate refuses the path.
  std::vector<StructuralIndex::EntryList> lists;
  /// When every list is warm: the entries the join selects, in document
  /// order — the answer of the structural join, or its parents when the
  /// path ends in text(). Null otherwise.
  StructuralIndex::EntryList entries;

  /// "structural-join" | "stream-scan": the label execution stamps into
  /// the request context and EXPLAIN shows.
  const char* label() const;
};

/// Plans `path` as the header comment describes: when the gate accepts
/// it, looks up every tag the join reads, and runs the join when all
/// are warm. Reads the store only for [p='lit'] values that no value
/// key decides; runs no scan, warms nothing and moves no index
/// counter. NotSupported when the path has more than kMaxStreamSteps
/// steps, predicate paths' steps included.
/// `allow_structural_index = false` plans the full scan — the one off
/// switch for the structural index, which the torture harness's oracle
/// and the A/B benches use.
Result<XPathAccessPlan> PlanXPath(const Store& store, const XPathPath& path,
                                  bool allow_structural_index = true);

/// Runs `plan`, PlanXPath's verdict for `path` against this store state.
/// Returns matching node ids in document order, duplicate-free. A cold
/// join's full scan warms its tags.
Result<std::vector<NodeId>> RunXPathPlan(const Store& store,
                                         const XPathPath& path,
                                         const XPathAccessPlan& plan);

/// Evaluates `path`: PlanXPath, then RunXPathPlan.
Result<std::vector<NodeId>> EvaluateXPathStreaming(
    const Store& store, const XPathPath& path,
    bool allow_structural_index = true);

/// Parses, then evaluates streamingly.
Result<std::vector<NodeId>> EvaluateXPathStreaming(const Store& store,
                                                   std::string_view expr);

}  // namespace laxml

#endif  // LAXML_QUERY_XPATH_STREAM_H_
