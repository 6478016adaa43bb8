// EXPLAIN for XPath: reproduces the planner's routing decision —
// structural join, seeded scan or stream scan — for one expression
// WITHOUT executing it, and reports why (eligibility-gate verdict,
// per-step index warmth and predicate semi-joins, the seed step and
// seed count). The server's kExplain op serves the plan as JSON; a profile variant executes afterwards and appends the request
// counters (see server/server.cc — this module stays wire-agnostic by
// layer rule).
//
// The decision logic here deliberately mirrors XPathEvaluator::Evaluate
// + EvaluateXPathStreaming: same split (SplitAtIndexablePrefix), same
// warmth test and join (JoinIndexedSteps: nullptr means a cold tag).
// explain_test pins plan-vs-execution agreement so the two cannot
// drift.

#ifndef LAXML_QUERY_EXPLAIN_H_
#define LAXML_QUERY_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "store/store.h"

namespace laxml {

/// One joined location step, or one predicate the join answers, as the
/// planner sees it (populated only for the steps the planner would
/// join, on an enabled index — a full scan has no per-step index story
/// to tell). A step's predicates follow it, in the order they filter.
struct XPathPlanStep {
  /// "child", "descendant" or "attribute"; "semi-join" for a predicate.
  std::string axis;
  /// semi-join only: "exists" ([p]), "equals" ([@a='lit']) or
  /// "position" ([n]).
  std::string kind;
  /// The posting list's tag ("@name" for an attribute), or "*" for a
  /// wildcard step, which has no list and counts as warm. A predicate's
  /// is its text ("[creditcard]").
  std::string tag;
  /// Tag has a memoized posting list; for a predicate, every tag of its
  /// path has ([n] reads none).
  bool warm = false;
  /// Posting-list length when warm; for a predicate, the summed lengths
  /// of its path's lists.
  uint64_t postings = 0;
};

/// The planner's verdict for one expression.
struct XPathPlan {
  std::string query;
  /// "structural-join" | "seeded-scan" | "stream-scan" — the same
  /// labels execution stamps into the request context
  /// (LAXML_RC_SET_PLAN).
  std::string plan;
  std::string index_mode;  ///< off | lazy | eager.
  bool eligible = false;   ///< Passed the structural-index gate.
  /// "eligible", or the gate's first disqualifying reason, or
  /// "index off" when the mode forecloses the question.
  std::string gate;
  std::vector<XPathPlanStep> steps;
  /// seeded-scan only: the index in the path (not in `steps`) of the
  /// last joined step, whose matches seed the scan, and how many seeds
  /// the join yields.
  int seed_step = -1;
  uint64_t seeds = 0;
  /// When non-empty, a pre-rendered JSON object the serializer embeds
  /// as "profile": the kExplain profile variant fills it with elapsed
  /// time, result count and the request counters.
  std::string profile_json;

  /// The plan as one JSON object (the kExplain response payload).
  std::string ToJson() const;
};

/// Plans `expr` against the store's current index state. Read-only and
/// side-effect-free: no scan runs, no tag warms, no index counter
/// moves. Counting a seeded scan's seeds runs the join, which reads the
/// attribute tokens of any [@a='lit'] predicate.
Result<XPathPlan> ExplainXPath(const Store& store, std::string_view expr);

}  // namespace laxml

#endif  // LAXML_QUERY_EXPLAIN_H_
