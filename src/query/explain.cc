#include "query/explain.h"

#include "common/json.h"
#include "index/structural_index.h"
#include "query/xpath_parser.h"
#include "query/xpath_stream.h"

namespace laxml {

std::string XPathPlan::ToJson() const {
  std::string out = "{\"query\":";
  AppendJsonString(query, &out);
  out += ",\"plan\":";
  AppendJsonString(plan, &out);
  out += ",\"eligible\":";
  out += eligible ? "true" : "false";
  out += ",\"gate\":";
  AppendJsonString(gate, &out);
  out += ",\"steps\":[";
  bool first = true;
  for (const XPathPlanStep& step : steps) {
    if (!first) out += ",";
    first = false;
    out += "{\"axis\":";
    AppendJsonString(step.axis, &out);
    if (!step.kind.empty()) {
      out += ",\"kind\":";
      AppendJsonString(step.kind, &out);
    }
    out += ",\"tag\":";
    AppendJsonString(step.tag, &out);
    out += ",\"warm\":";
    out += step.warm ? "true" : "false";
    out += ",\"postings\":" + std::to_string(step.postings);
    out += "}";
  }
  out += "]";
  if (!profile_json.empty()) {
    out += ",\"profile\":" + profile_json;
  }
  out += "}";
  return out;
}

Result<XPathPlan> ExplainXPath(const Store& store, std::string_view expr) {
  LAXML_ASSIGN_OR_RETURN(XPathPath path, ParseXPath(expr));
  LAXML_ASSIGN_OR_RETURN(XPathAccessPlan access, PlanXPath(store, path));
  return RenderXPathPlan(expr, path, access);
}

XPathPlan RenderXPathPlan(std::string_view expr, const XPathPath& path,
                          const XPathAccessPlan& access) {
  XPathPlan plan;
  plan.query.assign(expr.data(), expr.size());
  plan.plan = access.label();

  const char* reason = StructuralIneligibilityReason(path);
  plan.eligible = reason == nullptr;
  plan.gate = plan.eligible ? "eligible" : reason;

  // The planner's lists come in join order: each step's, then its
  // predicate paths' steps'. None when the path does not join.
  if (access.lists.empty()) return plan;
  auto list = access.lists.begin();
  // Folds `step`'s list into `out`: its warmth and length. A '*' or
  // text() step has no list: the join counts a '*' as a level, and
  // answers text() from its parents' entries.
  auto fold = [&list](const XPathStep& step, XPathPlanStep* out) {
    const StructuralIndex::EntryList& entries = *list++;
    if (step.test != NodeTestKind::kName) return;
    out->warm = out->warm && entries != nullptr;
    out->postings += entries == nullptr ? 0 : entries->size();
  };
  for (const XPathStep& step : path.steps) {
    XPathPlanStep out;
    out.axis = step.axis == XPathAxis::kChild       ? "child"
               : step.axis == XPathAxis::kAttribute ? "attribute"
                                                    : "descendant";
    out.tag = step.test == NodeTestKind::kWildcard    ? "*"
              : step.test == NodeTestKind::kText   ? "text()"
              : step.axis == XPathAxis::kAttribute ? AttributeKey(step.name)
                                                   : step.name;
    out.warm = true;
    fold(step, &out);
    plan.steps.push_back(std::move(out));
    for (const XPathPredicate& pred : step.predicates) {
      XPathPlanStep semi;
      semi.axis = "semi-join";
      semi.kind = pred.kind == XPathPredicate::Kind::kPosition ? "position"
                  : pred.kind == XPathPredicate::Kind::kExists
                      ? "exists"
                      : "equals";
      semi.tag = pred.ToString();
      semi.warm = true;
      for (const XPathStep& p : pred.path.steps) fold(p, &semi);
      plan.steps.push_back(std::move(semi));
    }
  }
  return plan;
}

}  // namespace laxml
