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
//     A '//x' step 0 reads x's whole list in place, its predicates
//     included. Each step's matches are filtered by its predicates,
//     each on one of four routes (XPathPredicateRoute, EXPLAIN's
//     predicate "axis"):
//       - "position": [n] keeps the n-th match per context node (the
//         parent, on a child step);
//       - "semi-join": [p] keeps the matches holding a p match below
//         them (a semi-join, run right to left along p), and
//         [p='lit'] first joins p down from the matches and keeps the
//         nodes it reaches whose value is the literal;
//       - "owner-gallop": the same, but the last semi-join, into the
//         matches, is a child step with at most one candidate per two
//         matches, so it gallops the candidates' parents into the
//         matches instead of merging (index/structural_index.h):
//         //person[creditcard] reads the creditcards, not every person;
//       - "bottom-up": [p='lit'] on a chain of child and '@name' steps
//         whose last list is at most three times the matches starts
//         from its values: that list is value-key-tested in place, and
//         the survivors climb the chain's lists to the matches by
//         parent_pre. A hashed or mixed survivor is confirmed on its
//         tokens only once it has landed on a match no exact one
//         reached, so no token outside the matches is read.
//     Both size rules sit where the two routes' timings cross
//     (EXPERIMENTS, Ablation T).
//     Values come from the entries' value keys
//     (index/structural_index.h): an attribute or a simple element with
//     a short value compares its key and reads nothing; a long value's
//     hash, when equal, is confirmed on its token (one Seek), and a
//     mixed element's string value is compared along a walk of its
//     subtree. After a final text() step, the answer is the joined
//     entries' text children: a text leaf's is located by arithmetic on
//     its entry, an empty element has none, and only a mixed element is
//     walked, child by child, skipping subtrees; with no mixed parent
//     the ids come out in order with no walk and no sort.
//     A predicate-free path — but [n] on a final child step — is
//     answered by the path summary instead of the joins: the last named
//     step's label-path partitions (index/structural_index.h) are
//     matched against the steps (child: the next label; descendant: any
//     later one; '*': any element label; '@name': an attribute label),
//     and the answer is the one matching partition, the whole list when
//     all match, or a merge by pre of the k that do. Same-name siblings
//     share a label path, so each context's children are one run of one
//     partition: [n] takes the n-th entry of each run, partition by
//     partition, galloping from run to run, and merges the few it
//     takes. text() reads the entries' text children as above. The
//     label, the warmth rule and the counters are the join's; only the
//     work differs (k in XPathAccessPlan::summary_paths, and EXPLAIN's
//     "summary_paths").
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
#include <variant>
#include <vector>

#include "common/status.h"
#include "index/structural_index.h"
#include "query/xpath_ast.h"
#include "store/store.h"

namespace laxml {

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

/// How a plan that joins answers one predicate (EXPLAIN's predicate
/// "axis"): [n] by numbering ("position"), [p] and [p='lit'] by
/// semi-joins from the frontier down ("semi-join"), the same with the
/// last semi-join galloping its few candidates' parents into the
/// frontier ("owner-gallop"), or a selective [p='lit'] on a child
/// chain from its value matches up ("bottom-up").
enum class XPathPredicateRoute : uint8_t {
  kPosition,
  kSemiJoin,
  kOwnerGallop,
  kBottomUp
};

/// "position" | "semi-join" | "owner-gallop" | "bottom-up".
const char* XPathPredicateRouteName(XPathPredicateRoute route);

/// The planner's verdict for one path against the store's current index
/// state: the access path, and what running it needs.
struct XPathAccessPlan {
  /// The posting lists the join of the whole path reads, in join order:
  /// each step's, then one per step of each of its [p] / [p='lit']
  /// predicate paths. Null for a '*' step (no list: the join counts it
  /// as a level), a text() step and a cold tag. Empty when the path
  /// does not join: the scan is forced or the gate refuses the path.
  std::vector<StructuralIndex::EntryList> lists;
  /// When every list is warm, where the entries the join selects live
  /// (entries() reads them, in document order: the answer of the
  /// structural join, or its parents when the path ends in text()):
  ///   - a whole posting list, read in place ('//x', or a tag whose
  ///     label paths all match), or one label-path partition of it: both
  ///     live in the index, and `lists` keeps them valid however the
  ///     index changes after planning;
  ///   - a selection the joins, an [n] or a merge of partitions built,
  ///     owned here (its pointers point into `lists` too).
  /// monostate otherwise. The plan copies safely: nothing here points
  /// into the plan itself.
  std::variant<std::monostate, const std::vector<StructuralEntry>*,
               const StructuralSelection*, StructuralSelection>
      answer;
  /// The path summary's part in the answer: the label-path partitions of
  /// the last named step it read (k; 0 when the joins ran).
  size_t summary_paths = 0;
  /// Postings the join kernels or the summary visited computing the
  /// answer (the request counter postings_read): under the summary,
  /// the partitions' summed sizes, or with [n] the entries its
  /// numbering probed.
  uint64_t postings_read = 0;
  /// The route of each predicate of the path's steps, in order; empty
  /// when the gate refuses the path. Before the join runs (a cold tag),
  /// a [p] or [p='lit'] shows "semi-join": only the sizes the join meets
  /// decide whether it gallops or goes bottom-up.
  std::vector<XPathPredicateRoute> routes;

  /// Whether every list was warm, so the index answered.
  bool answered() const { return answer.index() != 0; }
  /// The answer's entries, wherever they live; empty when !answered().
  StructuralSpan entries() const;

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
