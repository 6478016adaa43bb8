// Tests for query/explain: EXPLAIN renders the planner's own plan
// (structural join or stream scan) without executing the query, and
// its per-step warmth tracks the lazy index's memoization state. The
// agreement test pins the rendered label to the label execution
// stamps, cold and warm.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "index/structural_index.h"
#include "obs/request_context.h"
#include "query/explain.h"
#include "query/xpath_eval.h"
#include "store/store.h"
#include "test_util.h"

namespace laxml {
namespace {

using testing::MustFragment;

class ExplainTest : public ::testing::Test {
 protected:
  void Open() {
    ASSERT_OK_AND_ASSIGN(store_, Store::OpenInMemory(StoreOptions{}));
    ASSERT_LAXML_OK(store_
                        ->InsertTopLevel(MustFragment(
                            "<site><regions>"
                            "<item><name>a</name><qty>1</qty></item>"
                            "<item><name>b</name></item>"
                            "</regions><people>"
                            "<person><name>Ada</name></person>"
                            "</people></site>"))
                        .status());
  }

  XPathPlan MustExplain(const std::string& expr) {
    auto plan = ExplainXPath(*store_, expr);
    EXPECT_TRUE(plan.ok()) << expr << ": " << plan.status().ToString();
    return plan.ok() ? std::move(plan).value() : XPathPlan{};
  }

  /// Runs `expr` through the real evaluator (warming the lazy index as
  /// a side effect).
  void MustExecute(const std::string& expr) {
    XPathEvaluator eval(store_.get());
    auto result = eval.Evaluate(expr);
    EXPECT_TRUE(result.ok()) << expr << ": " << result.status().ToString();
  }

#if !defined(LAXML_TRACING_DISABLED)
  /// Like MustExecute, but returns the plan label execution stamped
  /// into the request context (needs the accounting compiled in).
  std::string ExecutedPlan(const std::string& expr) {
    obs::RequestContext rc;
    obs::ScopedRequestContext scoped(&rc);
    XPathEvaluator eval(store_.get());
    auto result = eval.Evaluate(expr);
    EXPECT_TRUE(result.ok()) << expr << ": " << result.status().ToString();
    return rc.plan != nullptr ? rc.plan : "";
  }
#endif

  std::unique_ptr<Store> store_;
};

TEST_F(ExplainTest, ColdEligiblePathIsStreamScan) {
  Open();
  XPathPlan plan = MustExplain("//item//name");
  EXPECT_EQ(plan.plan, "stream-scan");
  EXPECT_TRUE(plan.eligible);
  EXPECT_EQ(plan.gate, "eligible");
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].tag, "item");
  EXPECT_EQ(plan.steps[0].axis, "descendant");
  EXPECT_FALSE(plan.steps[0].warm);
  EXPECT_FALSE(plan.steps[1].warm);
}

TEST_F(ExplainTest, WarmPathIsStructuralJoin) {
  Open();
  // Execute once: the lazy index memoizes exactly the queried tags.
  MustExecute("//item//name");
  XPathPlan plan = MustExplain("//item//name");
  EXPECT_EQ(plan.plan, "structural-join");
  ASSERT_EQ(plan.steps.size(), 2u);
  // The path summary answers it from one of <name>'s two label paths,
  // /site/regions/item/name: two of the three <name> elements. It
  // reads no <item> posting.
  EXPECT_EQ(plan.summary_paths, 1u);
  EXPECT_TRUE(plan.steps[0].warm);
  EXPECT_EQ(plan.steps[0].postings, 0u);
  EXPECT_TRUE(plan.steps[1].warm);
  EXPECT_EQ(plan.steps[1].postings, 2u);
  // A sibling tag the query never touched stays cold.
  XPathPlan other = MustExplain("//person");
  EXPECT_EQ(other.plan, "stream-scan");
  EXPECT_FALSE(other.steps[0].warm);
}

TEST_F(ExplainTest, PathSummaryReportsItsPartitions) {
  // <name> on six label paths: one per region's items, and people's.
  ASSERT_OK_AND_ASSIGN(store_, Store::OpenInMemory(StoreOptions{}));
  std::string xml = "<site><regions>";
  for (const char* region : {"africa", "asia", "europe", "namerica",
                             "samerica"}) {
    xml += std::string("<") + region + "><item><name>i</name></item>" +
           "<item><name>j</name></item></" + region + ">";
  }
  xml += "</regions><people><person><name>p</name></person></people></site>";
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment(xml)).status());
  struct Case {
    const char* expr;
    uint64_t summary_paths;
    uint64_t name_postings;  ///< Read from <name>'s list.
    size_t results;
  };
  const Case cases[] = {
      {"/site/people/person/name", 1, 1, 1},  // one partition
      {"//item/name", 5, 10, 10},             // five, merged by pre
      {"//item[name]", 0, 11, 10},            // a predicate: the joins
  };
  for (const Case& c : cases) {
    MustExecute(c.expr);  // warms the path's tags
    XPathPlan plan = MustExplain(c.expr);
    EXPECT_EQ(plan.plan, "structural-join") << c.expr;
    EXPECT_EQ(plan.summary_paths, c.summary_paths) << c.expr;
    EXPECT_NE(plan.ToJson().find("\"summary_paths\":" +
                                 std::to_string(c.summary_paths)),
              std::string::npos)
        << plan.ToJson();
    uint64_t name_postings = 0;
    for (const XPathPlanStep& step : plan.steps) {
      if (step.tag == "name" || step.tag == "[name]") {
        name_postings += step.postings;
      }
    }
    EXPECT_EQ(name_postings, c.name_postings) << c.expr;
    XPathEvaluator eval(store_.get());
    ASSERT_OK_AND_ASSIGN(std::vector<NodeId> ids, eval.Evaluate(c.expr));
    EXPECT_EQ(ids.size(), c.results) << c.expr;
  }
  // A scan has no summary.
  EXPECT_EQ(MustExplain("//person//text()").summary_paths, 0u);
}

TEST_F(ExplainTest, PartiallyWarmPathStaysStreamScan) {
  Open();
  MustExecute("//item");  // warms only "item"
  XPathPlan plan = MustExplain("//item//qty");
  EXPECT_EQ(plan.plan, "stream-scan");
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_TRUE(plan.steps[0].warm);
  EXPECT_FALSE(plan.steps[1].warm);
}

TEST_F(ExplainTest, IneligiblePathReportsGateReason) {
  Open();
  XPathPlan pred = MustExplain("/site/*[1]");
  EXPECT_EQ(pred.plan, "stream-scan");
  EXPECT_FALSE(pred.eligible);
  EXPECT_EQ(pred.gate, "has predicates");
  EXPECT_TRUE(pred.steps.empty());  // nothing of it joins

  XPathPlan attr = MustExplain("//item//@id");
  EXPECT_EQ(attr.plan, "stream-scan");
  EXPECT_FALSE(attr.eligible);
  EXPECT_EQ(attr.gate, "descendant attribute step");

  XPathPlan wildcard = MustExplain("/site/regions/*");
  EXPECT_EQ(wildcard.plan, "stream-scan");
  EXPECT_EQ(wildcard.gate, "trailing wildcard step");

  EXPECT_EQ(MustExplain("//item/@*").gate, "attribute wildcard step");
  EXPECT_EQ(MustExplain("//item//text()").gate, "non-name node test");
}

TEST_F(ExplainTest, WildcardAndAttributeStepsJoin) {
  Open();
  XPathPlan cold = MustExplain("/site/*/item");
  EXPECT_EQ(cold.plan, "stream-scan");
  EXPECT_EQ(cold.gate, "eligible");
  ASSERT_EQ(cold.steps.size(), 3u);
  EXPECT_EQ(cold.steps[1].axis, "child");
  EXPECT_EQ(cold.steps[1].tag, "*");
  EXPECT_TRUE(cold.steps[1].warm);  // no list to warm
  EXPECT_FALSE(cold.steps[2].warm);
  MustExecute("/site/*/item");
  XPathPlan warm = MustExplain("/site/*/item");
  EXPECT_EQ(warm.plan, "structural-join");
  EXPECT_EQ(warm.steps[2].postings, 2u);

  // A final '@name' step has a list of its own, warm even when empty.
  EXPECT_EQ(MustExplain("//person/@id").plan, "stream-scan");
  MustExecute("//person/@id");
  XPathPlan attr = MustExplain("//person/@id");
  EXPECT_EQ(attr.plan, "structural-join");
  ASSERT_EQ(attr.steps.size(), 2u);
  EXPECT_EQ(attr.steps[1].axis, "attribute");
  EXPECT_EQ(attr.steps[1].tag, "@id");
  EXPECT_TRUE(attr.steps[1].warm);
  EXPECT_EQ(attr.steps[1].postings, 0u);
}

TEST_F(ExplainTest, FinalTextStepAndElementValueJoin) {
  Open();
  // A final text() child step joins as a step of its own, with no list:
  // cold, the full scan warms "item" and "name".
  XPathPlan cold = MustExplain("//item/name/text()");
  EXPECT_EQ(cold.plan, "stream-scan");
  EXPECT_TRUE(cold.eligible);
  EXPECT_EQ(cold.gate, "eligible");
  ASSERT_EQ(cold.steps.size(), 3u);
  EXPECT_FALSE(cold.steps[0].warm);
  EXPECT_EQ(cold.steps[2].tag, "text()");
  MustExecute("//item/name/text()");

  XPathPlan joined = MustExplain("//item/name/text()");
  EXPECT_EQ(joined.plan, "structural-join");
  ASSERT_EQ(joined.steps.size(), 3u);
  EXPECT_TRUE(joined.steps[0].warm);
  EXPECT_TRUE(joined.steps[1].warm);
  EXPECT_TRUE(joined.steps[2].warm);  // no list to warm

  // An element's value joins: the <name> postings' value keys answer it.
  XPathPlan value = MustExplain("//item[name='a']");
  EXPECT_EQ(value.plan, "structural-join");
  EXPECT_TRUE(value.eligible);
  ASSERT_EQ(value.steps.size(), 2u);
  EXPECT_EQ(value.steps[1].kind, "equals");
}

TEST_F(ExplainTest, RefusedPathStaysStreamScan) {
  Open();
  MustExecute("/site/regions/item/name");  // every named tag below warm
  const size_t warmed = store_->structural_index()->warmed_tags();
  struct Case {
    const char* expr;
    const char* gate;
  };
  // Warm named steps before the step the gate refuses: the path still
  // scans whole, before and after it runs, and EXPLAIN shows no steps.
  const Case cases[] = {
      {"//item/name//text()", "non-name node test"},
      {"//item[name/text()='a']", "predicate path not indexable"},
      {"/site/regions/item[name/text()='b'][1]",
       "predicate path not indexable"},
      {"//item[name/text()='b'][1]", "predicate path not indexable"},
      {"/site/regions/*", "trailing wildcard step"},
  };
  for (const Case& c : cases) {
    for (int round = 0; round < 2; ++round) {
      XPathPlan plan = MustExplain(c.expr);
      EXPECT_EQ(plan.plan, "stream-scan") << c.expr << " round " << round;
      EXPECT_FALSE(plan.eligible) << c.expr;
      EXPECT_EQ(plan.gate, c.gate) << c.expr;
      EXPECT_TRUE(plan.steps.empty()) << c.expr;
      EXPECT_NE(plan.ToJson().find("\"steps\":[]"), std::string::npos)
          << plan.ToJson();
      MustExecute(c.expr);
    }
  }
  // Running them warmed nothing.
  EXPECT_EQ(store_->structural_index()->warmed_tags(), warmed);
}

TEST_F(ExplainTest, PredicatesShowTheirRoute) {
  Open();
  ASSERT_OK_AND_ASSIGN(NodeId site, store_->FirstTopLevelId());
  ASSERT_LAXML_OK(
      store_
          ->InsertIntoLast(site, MustFragment("<shelf>"
                                              "<disc genre='jazz'>x</disc>"
                                              "<disc genre='folk'>y</disc>"
                                              "<disc genre='rock'>z</disc>"
                                              "<disc genre='pop'>w</disc>"
                                              "<label>new</label>"
                                              "</shelf>"))
          .status());
  struct Case {
    const char* expr;
    const char* kind;
    const char* tag;
    uint64_t postings;
    size_t results;
    /// The warm route: a [n] is numbered, under the summary too; a
    /// [p='lit'] whose values are at most three times its frontier goes
    /// up from them; a child [p] with at most one candidate per two
    /// frontier entries gallops their parents; the rest are semi-joins
    /// from the frontier down.
    const char* route;
  };
  const Case cases[] = {
      {"//item[qty]", "exists", "[qty]", 1, 1, "owner-gallop"},
      {"//item[name]", "exists", "[name]", 3, 2, "semi-join"},
      {"//disc[@genre='jazz']", "equals", "[@genre='jazz']", 4, 1,
       "bottom-up"},
      {"/site/regions/item[2]", "position", "[2]", 0, 1, "position"},
      {"//shelf[disc='y']", "equals", "[disc='y']", 4, 1, "semi-join"},
      {"/site/shelf[label='new']", "equals", "[label='new']", 1, 1,
       "bottom-up"},
  };
  for (const Case& c : cases) {
    XPathPlan cold = MustExplain(c.expr);
    EXPECT_EQ(cold.plan, "stream-scan") << c.expr;
    EXPECT_TRUE(cold.eligible) << c.expr;
    // Before the join runs, only a [n]'s route is known.
    ASSERT_FALSE(cold.steps.empty()) << c.expr;
    EXPECT_EQ(cold.steps.back().axis,
              std::string(c.kind) == "position" ? "position" : "semi-join")
        << c.expr;
    MustExecute(c.expr);  // warms the predicate path's tags too
    XPathPlan warm = MustExplain(c.expr);
    EXPECT_EQ(warm.plan, "structural-join") << c.expr;
    ASSERT_FALSE(warm.steps.empty()) << c.expr;
    const XPathPlanStep& pred = warm.steps.back();
    EXPECT_EQ(pred.axis, c.route) << c.expr;
    EXPECT_EQ(pred.kind, c.kind) << c.expr;
    EXPECT_EQ(pred.tag, c.tag) << c.expr;
    EXPECT_TRUE(pred.warm) << c.expr;
    EXPECT_EQ(pred.postings, c.postings) << c.expr;
    EXPECT_NE(warm.ToJson().find("\"axis\":\"" + std::string(c.route) +
                                 "\",\"kind\":\"" + std::string(c.kind) +
                                 "\""),
              std::string::npos)
        << warm.ToJson();
    XPathEvaluator eval(store_.get());
    ASSERT_OK_AND_ASSIGN(std::vector<NodeId> ids, eval.Evaluate(c.expr));
    EXPECT_EQ(ids.size(), c.results) << c.expr;
  }
  // Predicates come after their step, in the order they filter.
  MustExecute("//item[name][1]");
  XPathPlan both = MustExplain("//item[name][1]");
  EXPECT_EQ(both.plan, "structural-join");
  ASSERT_EQ(both.steps.size(), 3u);
  EXPECT_EQ(both.steps[0].tag, "item");
  EXPECT_EQ(both.steps[1].kind, "exists");
  EXPECT_EQ(both.steps[2].kind, "position");
  // A cold predicate tag keeps the whole join cold.
  XPathPlan cold_pred = MustExplain("//item[nosuch]");
  EXPECT_EQ(cold_pred.plan, "stream-scan");
  ASSERT_EQ(cold_pred.steps.size(), 2u);
  EXPECT_TRUE(cold_pred.steps[0].warm);
  EXPECT_FALSE(cold_pred.steps[1].warm);
}

TEST_F(ExplainTest, PredicateGateReasons) {
  Open();
  MustExecute("//item//name");
  struct Case {
    const char* expr;
    const char* gate;
  };
  const Case cases[] = {
      {"//item[name/text()='a']", "predicate path not indexable"},
      {"//item[name[1]]", "nested predicate"},
      {"//item[name/text()]", "predicate path not indexable"},
  };
  for (const Case& c : cases) {
    XPathPlan plan = MustExplain(c.expr);
    EXPECT_FALSE(plan.eligible) << c.expr;
    EXPECT_EQ(plan.gate, c.gate) << c.expr;
    // The whole path scans, its warm tags unused.
    EXPECT_EQ(plan.plan, "stream-scan") << c.expr;
    EXPECT_TRUE(plan.steps.empty()) << c.expr;
  }
}

TEST_F(ExplainTest, ExplainDoesNotWarmOrExecute) {
  Open();
  (void)MustExplain("//item//name");
  (void)MustExplain("//item//name");
  // Side-effect-free: no tag warmed, no index traffic recorded.
  EXPECT_EQ(store_->structural_index()->warmed_tags(), 0u);
  EXPECT_EQ(store_->structural_index()->stats().misses, 0u);
  EXPECT_EQ(store_->structural_index()->stats().hits, 0u);
}

TEST_F(ExplainTest, BadExpressionPropagatesParseError) {
  Open();
  EXPECT_FALSE(ExplainXPath(*store_, "//").ok());
  EXPECT_FALSE(ExplainXPath(*store_, "").ok());
}

#if !defined(LAXML_TRACING_DISABLED)
// The drift pin: for a matrix of expressions and warmth states, the
// plan EXPLAIN predicts is the plan execution stamps.
TEST_F(ExplainTest, PredictionMatchesExecutionStamp) {
  Open();
  const char* exprs[] = {"//item//name",       "/site/regions/item",
                         "//person",           "//item[1]",
                         "//nosuch",           "/site/*/item",
                         "//item/text()",      "//item/@id",
                         "//item[name='a']",   "//item[qty]/name",
                         "/site/regions/item[2]", "//item[@id='x']/name",
                         "//item[name][2]",    "//item[name='b'][1]",
                         "//people/*",         "//person[name='Ada']",
                         "//nosuch/text()",    "//regions/item/name//text()",
                         "//item//@id",        "/site[people]"};
  std::set<std::string> seen;
  for (const char* expr : exprs) {
    // Cold round, then warm round: predict, execute, compare both times.
    for (int round = 0; round < 2; ++round) {
      XPathPlan predicted = MustExplain(expr);
      std::string executed = ExecutedPlan(expr);
      EXPECT_EQ(predicted.plan, executed)
          << expr << " round " << round;
      seen.insert(executed);
    }
  }
  // The matrix pins every plan label.
  EXPECT_EQ(seen, (std::set<std::string>{"stream-scan", "structural-join"}));
}
#endif  // !defined(LAXML_TRACING_DISABLED)

TEST_F(ExplainTest, ToJsonShape) {
  Open();
  MustExecute("//item");
  XPathPlan plan = MustExplain("//item");
  std::string json = plan.ToJson();
  EXPECT_NE(json.find("\"query\":\"//item\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\":\"structural-join\""), std::string::npos);
  EXPECT_NE(json.find("\"eligible\":true"), std::string::npos);
  EXPECT_NE(json.find("\"steps\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"axis\":\"descendant\""), std::string::npos);
  EXPECT_NE(json.find("\"warm\":true"), std::string::npos);
  EXPECT_EQ(json.find("\"profile\""), std::string::npos);

  plan.profile_json = "{\"elapsed_us\":5}";
  std::string with_profile = plan.ToJson();
  EXPECT_NE(with_profile.find("\"profile\":{\"elapsed_us\":5}"),
            std::string::npos);
}

}  // namespace
}  // namespace laxml
