// EXPLAIN for XPath: reproduces the planner's routing decision —
// structural join, seeded scan or stream scan — for one expression
// WITHOUT executing it, and reports why (eligibility-gate verdict,
// per-step index warmth, the seed step and seed count). The server's kExplain op serves the plan as
// JSON; a profile variant executes afterwards and appends the request
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

/// One joined location step as the planner sees it (populated only for
/// the steps the planner would join, on an enabled index — a full scan
/// has no per-step index story to tell).
struct XPathPlanStep {
  std::string axis;      ///< "child", "descendant" or "attribute".
  /// The posting list's tag ("@name" for an attribute), or "*" for a
  /// wildcard step, which has no list and counts as warm.
  std::string tag;
  bool warm = false;     ///< Tag has a memoized posting list.
  uint64_t postings = 0; ///< Posting-list length when warm.
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
  /// seeded-scan only: the index of the last joined step, whose
  /// matches seed the scan, and how many seeds the join yields.
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
/// side-effect-free: no scan runs, no tag warms, no counter moves.
Result<XPathPlan> ExplainXPath(const Store& store, std::string_view expr);

}  // namespace laxml

#endif  // LAXML_QUERY_EXPLAIN_H_
