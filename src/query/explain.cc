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
  // steps iff every one of their tags is warm; one cold tag sends it to
  // the full scan.
  const SeedSplit split = SplitAtIndexablePrefix(path);
  const size_t joined = split.joined;
  bool all_warm = true;
  plan.steps.reserve(joined);
  for (size_t i = 0; i < joined; ++i) {
    const XPathStep& step = path.steps[i];
    XPathPlanStep out;
    out.axis = step.axis == XPathAxis::kChild       ? "child"
               : step.axis == XPathAxis::kAttribute ? "attribute"
                                                    : "descendant";
    if (step.test == NodeTestKind::kWildcard) {
      // A '*' step has no list to warm: the join counts it as a level.
      out.tag = "*";
      out.warm = true;
    } else {
      out.tag = StructuralKey(step);
      StructuralIndex::EntryList list = index->LookupTag(out.tag);
      out.warm = list != nullptr;
      out.postings = list == nullptr ? 0 : list->size();
    }
    if (!out.warm) all_warm = false;
    plan.steps.push_back(std::move(out));
  }
  if (joined == 0 || !all_warm) return plan;
  if (split.JoinsWholePath(path)) {
    plan.plan = "structural-join";
    return plan;
  }
  plan.plan = "seeded-scan";
  plan.seed_step = static_cast<int>(joined - 1);
  StructuralIndex::EntryList seeds = JoinIndexedSteps(*index, path, joined);
  plan.seeds = seeds == nullptr ? 0 : seeds->size();
  return plan;
}

}  // namespace laxml
