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
  out += ",\"index_mode\":";
  AppendJsonString(index_mode, &out);
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
  if (plan == "seeded-scan") {
    out += ",\"seed_step\":" + std::to_string(seed_step);
    out += ",\"seeds\":" + std::to_string(seeds);
  }
  if (!profile_json.empty()) {
    out += ",\"profile\":" + profile_json;
  }
  out += "}";
  return out;
}

Result<XPathPlan> ExplainXPath(const Store& store, std::string_view expr) {
  LAXML_ASSIGN_OR_RETURN(XPathPath path, ParseXPath(expr));
  XPathPlan plan;
  plan.query.assign(expr.data(), expr.size());
  plan.plan = "stream-scan";

  const StructuralIndex* index = store.structural_index();
  plan.index_mode = StructuralIndexModeName(index->mode());
  const char* reason = StructuralIneligibilityReason(path);
  plan.eligible = reason == nullptr;
  plan.gate = !plan.eligible       ? reason
              : index->enabled() ? "eligible"
                                 : "index off";
  if (!index->enabled()) return plan;

  // The warm fork: EvaluateXPathStreaming joins the first `joined`
  // steps iff every one of their tags, and every tag of the predicate
  // paths it answers, is warm; one cold tag sends it to the full scan.
  const SeedSplit split = SplitAtIndexablePrefix(path);
  const size_t joined = split.joined;
  bool all_warm = true;
  // Looks `step` up: its list's warmth and length.
  auto lookup = [&](const XPathStep& step, XPathPlanStep* out) {
    // A '*' step has no list to warm: the join counts it as a level.
    if (step.test == NodeTestKind::kWildcard) return;
    StructuralIndex::EntryList list = index->LookupTag(StructuralKey(step));
    out->warm = out->warm && list != nullptr;
    out->postings += list == nullptr ? 0 : list->size();
  };
  for (size_t i = 0; i < joined; ++i) {
    const XPathStep& step = path.steps[i];
    XPathPlanStep out;
    out.axis = step.axis == XPathAxis::kChild       ? "child"
               : step.axis == XPathAxis::kAttribute ? "attribute"
                                                    : "descendant";
    out.tag = step.test == NodeTestKind::kWildcard ? "*" : StructuralKey(step);
    out.warm = true;
    lookup(step, &out);
    all_warm = all_warm && out.warm;
    plan.steps.push_back(std::move(out));
    if (!JoinsPredicates(step)) continue;
    for (const XPathPredicate& pred : step.predicates) {
      XPathPlanStep semi;
      semi.axis = "semi-join";
      semi.kind = pred.kind == XPathPredicate::Kind::kPosition ? "position"
                  : pred.kind == XPathPredicate::Kind::kExists
                      ? "exists"
                      : "equals";
      semi.tag = pred.ToString();
      semi.warm = true;
      for (const XPathStep& p : pred.path.steps) lookup(p, &semi);
      all_warm = all_warm && semi.warm;
      plan.steps.push_back(std::move(semi));
    }
  }
  if (joined == 0 || !all_warm) return plan;
  if (split.JoinsWholePath(path)) {
    plan.plan = "structural-join";
    return plan;
  }
  plan.plan = "seeded-scan";
  plan.seed_step = static_cast<int>(joined - 1);
  LAXML_ASSIGN_OR_RETURN(StructuralIndex::EntryList seeds,
                         JoinIndexedSteps(store, path, joined));
  plan.seeds = seeds == nullptr ? 0 : seeds->size();
  return plan;
}

}  // namespace laxml
