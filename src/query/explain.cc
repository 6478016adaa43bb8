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
  out += ",\"summary_paths\":" + std::to_string(summary_paths);
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
  plan.summary_paths = access.summary_paths;
  // The summary reads the partitions of the last named step only.
  const XPathStep* summary_step = nullptr;
  if (access.summary_paths > 0) {
    for (const XPathStep& step : path.steps) {
      if (step.test == NodeTestKind::kName) summary_step = &step;
    }
  }
  auto list = access.lists.begin();
  // Folds `step`'s list into `out`: its warmth and the postings read
  // from it, its length for a join. A '*' or text() step has no list:
  // the join counts a '*' as a level, and answers text() from its
  // parents' entries.
  auto fold = [&](const XPathStep& step, XPathPlanStep* out) {
    const StructuralIndex::EntryList& entries = *list++;
    if (step.test != NodeTestKind::kName) return;
    out->warm = out->warm && entries != nullptr;
    if (entries == nullptr) return;
    if (summary_step == nullptr) {
      out->postings += entries->size();
    } else if (&step == summary_step) {
      out->postings += access.postings_read;
    }
  };
  auto route = access.routes.begin();
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
      XPathPlanStep filter;
      filter.axis = XPathPredicateRouteName(*route++);
      filter.kind = pred.kind == XPathPredicate::Kind::kPosition ? "position"
                    : pred.kind == XPathPredicate::Kind::kExists
                        ? "exists"
                        : "equals";
      filter.tag = pred.ToString();
      filter.warm = true;
      for (const XPathStep& p : pred.path.steps) fold(p, &filter);
      plan.steps.push_back(std::move(filter));
    }
  }
  return plan;
}

}  // namespace laxml
