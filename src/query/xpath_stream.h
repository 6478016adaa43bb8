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
// anything runs, for execution and EXPLAIN alike. It checks the step
// limit, then splits the path at its longest index-answerable prefix —
// the leading named child/descendant steps, any run of '*' child steps
// between two of them, a final '@name' step or a final predicate-free
// text() child step after a named step, and the predicates of the named
// steps that a semi-join over the postings answers: [n], [p] and
// [p='lit'], where p is a predicate-free path the join could run from
// the step's node, ending on an element or an attribute. When the
// prefix's tags, its predicate paths' included, are warm in the store's
// lazy structural index, their posting-list join yields *seeds*. Each
// step's matches are filtered by its predicates left to right: [p]
// keeps the matches holding a p match below them (a semi-join, run
// right to left along p), [p='lit'] first keeps the p matches whose
// value is the literal, and [n] keeps the n-th match per context node
// (the parent, on a child step). Values come from the entries' value
// keys (index/structural_index.h): an attribute or a simple element
// with a short value compares its key and reads nothing; a long value's
// hash, when equal, is confirmed on its token (one Seek), and a mixed
// element's string value is compared along a walk of its subtree. Then:
//   * the whole path is the prefix: the join is the answer
//     ("structural-join", no scan at all). After a final text() step,
//     the answer is the seeds' text children: a text leaf's is located
//     by arithmetic on its entry, an empty element has none, and only
//     a mixed element is walked, child by child, skipping subtrees;
//   * otherwise the scan runs only inside the seeds' subtrees
//     ("seeded-scan"): a cursor Seek()s to each outermost seed's begin
//     token, the step after the prefix is armed for the seed's
//     children, and the subscan ends at the seed's end token. When the
//     step after the prefix is named and carries predicates the join
//     cannot answer (a nested predicate, a path with a text() step...)
//     and no [n], the join runs through it too and each seed enters
//     the scan as a candidate of that step, its predicates pending.
//     What is left to the scan: a '//text()', 'node()', 'comment()',
//     '@*' or trailing '*' step and what follows it, such predicates,
//     and [n] on a '//' step right after '*'.
// A cold tag sends the query to the full scan, whose by-product warms
// the join's tags (every tag, in eager mode). Off-mode stores, paths
// without a prefix, and the forced scan take the full scan.
//
// Every scan — full or seeded — skips dead subtrees: a scope that opens
// with no armed step, no pending condition, no positional context
// counting inside it, no '=' capture, no warmer and no seed ahead can
// contribute nothing, so the cursor passes it reading headers only
// (TokenCursor::SkipSubtree). Results are keyed by global token ordinal,
// so they come out in document order whichever tokens were visited.

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
  enum class Kind : uint8_t { kStreamScan, kSeededScan, kStructuralJoin };
  Kind kind = Kind::kStreamScan;
  /// The posting-list join runs through the first `joined` steps (0: no
  /// join — the index is off, the scan is forced, or no prefix is
  /// indexable). `candidates` when the last joined step has predicates
  /// the join cannot answer, so its matches enter the scan as pending
  /// candidates; otherwise they are contexts for the next step. The
  /// joined steps never end in '*', and an '@name' or text() step joins
  /// only as the path's last step (a seed must be an element). `text`
  /// when that last step is text(). Set whatever the tags' warmth.
  size_t joined = 0;
  bool candidates = false;
  bool text = false;
  /// The posting lists the join reads, in join order: each joined
  /// step's, then — except on a candidates step — one per step of each
  /// of its [p] / [p='lit'] predicate paths. Null for a '*' step (no
  /// list: the join counts it as a level), a text() step and a cold
  /// tag.
  std::vector<StructuralIndex::EntryList> lists;
  /// When every list is warm: the entries the joined steps select, in
  /// document order — the answer of a structural join (with `text`,
  /// the parents of the answer), the seeds of a seeded scan. Null
  /// otherwise.
  StructuralIndex::EntryList seeds;

  /// "structural-join" | "seeded-scan" | "stream-scan": the label
  /// execution stamps into the request context and EXPLAIN shows.
  const char* label() const;
};

/// Plans `path` as the header comment describes: splits it, looks up
/// every tag the join reads, and runs the join when all are warm. Reads
/// the store only for [p='lit'] values that no value key decides; runs
/// no scan, warms nothing
/// and moves no index counter. NotSupported when the path has more than
/// kMaxStreamSteps steps, predicate paths' steps included.
/// `allow_structural_index = false` plans the full scan — the torture
/// harness's on/off oracle and A/B benches use it.
Result<XPathAccessPlan> PlanXPath(const Store& store, const XPathPath& path,
                                  bool allow_structural_index = true);

/// Runs `plan`, PlanXPath's verdict for `path` against this store state.
/// Returns matching node ids in document order, duplicate-free. A cold
/// join's full scan warms its tags (every tag, in eager mode).
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
