// EXPLAIN for XPath: the routing decision — structural join or stream
// scan — for one expression, and why (eligibility-gate verdict, and for
// a path the gate accepts, per-step index warmth and each predicate's
// route). The decision is the engine's own: ExplainXPath
// parses, asks the one planner (PlanXPath, query/xpath_stream.h) and
// renders its plan, and runs nothing. The server's kExplain op serves
// the plan as JSON; its profile variant runs that same plan under the
// same store hold and appends the request counters (see
// server/server.cc — this module stays wire-agnostic by layer rule).

#ifndef LAXML_QUERY_EXPLAIN_H_
#define LAXML_QUERY_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/xpath_ast.h"
#include "query/xpath_stream.h"
#include "store/store.h"

namespace laxml {

/// One location step, or one predicate the join answers, as the planner
/// sees it (populated only for a path the gate accepts — any other scan
/// has no per-step index story to tell). A step's predicates follow it,
/// in the order they filter.
struct XPathPlanStep {
  /// "child", "descendant" or "attribute"; for a predicate, its route
  /// (XPathPredicateRoute): "position" ([n], numbered), "semi-join"
  /// (from the frontier down), "owner-gallop" (the same, with the
  /// candidates' parents galloped into the frontier) or "bottom-up"
  /// ([p='lit'] from its value matches up).
  std::string axis;
  /// Predicates only: "exists" ([p]), "equals" ([p='lit']) or
  /// "position" ([n]).
  std::string kind;
  /// The posting list's tag ("@name" for an attribute), or "*" for a
  /// wildcard step and "text()" for a final text() step, which have no
  /// list and count as warm. A predicate's is its text ("[creditcard]").
  std::string tag;
  /// Tag has a memoized posting list; for a predicate, every tag of its
  /// path has ([n] reads none).
  bool warm = false;
  /// The postings the plan reads from the list: its length when warm
  /// and the joins run (for a predicate, the summed lengths of its
  /// path's lists); under the path summary, the postings it reads from
  /// the last named step's partitions (XPathAccessPlan::postings_read),
  /// and 0 on every other step.
  uint64_t postings = 0;
};

/// The planner's verdict for one expression.
struct XPathPlan {
  std::string query;
  /// "structural-join" | "stream-scan" — the same labels execution
  /// stamps into the request context (LAXML_RC_SET_PLAN).
  std::string plan;
  /// Passed the structural-index gate: the path joins once its tags are
  /// warm.
  bool eligible = false;
  /// "eligible", or the gate's first disqualifying reason.
  std::string gate;
  /// Label-path partitions the path summary answered from (k); 0 when
  /// the joins ran or the plan scans.
  uint64_t summary_paths = 0;
  std::vector<XPathPlanStep> steps;
  /// When non-empty, a pre-rendered JSON object the serializer embeds
  /// as "profile": the kExplain profile variant fills it with elapsed
  /// time, result count and the request counters.
  std::string profile_json;

  /// The plan as one JSON object (the kExplain response payload).
  std::string ToJson() const;
};

/// Plans `expr` against the store's current index state and renders the
/// plan. Read-only and side-effect-free: no scan runs, no tag warms, no
/// index counter moves. A warm join runs, which reads the attribute
/// tokens of any [@a='lit'] predicate.
Result<XPathPlan> ExplainXPath(const Store& store, std::string_view expr);

/// Renders `access`, PlanXPath's verdict for `path` (parsed from
/// `expr`). The profile variant renders the plan it runs with this.
XPathPlan RenderXPathPlan(std::string_view expr, const XPathPath& path,
                          const XPathAccessPlan& access);

}  // namespace laxml

#endif  // LAXML_QUERY_EXPLAIN_H_
