// XPath evaluation tests over a real store: axes, kind tests,
// predicates, document order, string values, and freshness after
// updates.

#include "query/xpath_eval.h"

#include <gtest/gtest.h>

#include "store/store.h"
#include "test_util.h"

namespace laxml {
namespace {

using testing::MustFragment;

class XPathEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StoreOptions options;
    ASSERT_OK_AND_ASSIGN(store_, Store::OpenInMemory(options));
    // No whitespace between the tags: every text node is data.
    ASSERT_OK_AND_ASSIGN(
        TokenSequence doc,
        ParseFragment(
            "<site>"
            "<regions>"
            "<europe>"
            "<item id=\"i1\" category=\"books\"><name>Iliad</name>"
            "<qty>2</qty></item>"
            "<item id=\"i2\" category=\"music\"><name>Kind of Blue</name>"
            "<qty>1</qty></item>"
            "</europe>"
            "<asia>"
            "<item id=\"i3\" category=\"books\"><name>Analects</name>"
            "<qty>5</qty></item>"
            "</asia>"
            "</regions>"
            "<people>"
            "<person id=\"p1\"><name>Ada</name>"
            "<creditcard>1111</creditcard></person>"
            "<person id=\"p2\"><name>Bob</name></person>"
            "</people>"
            "<!-- site comment -->"
            "</site>"));
    ASSERT_LAXML_OK(store_->InsertTopLevel(doc).status());
    evaluator_ = std::make_unique<XPathEvaluator>(store_.get());
  }

  std::vector<NodeId> Eval(const std::string& expr) {
    auto result = evaluator_->Evaluate(expr);
    EXPECT_TRUE(result.ok()) << expr << ": " << result.status().ToString();
    return result.ok() ? std::move(result).value() : std::vector<NodeId>{};
  }

  std::vector<std::string> Names(const std::vector<NodeId>& ids) {
    std::vector<std::string> out;
    for (NodeId id : ids) {
      auto tok = store_->Describe(id);
      EXPECT_TRUE(tok.ok());
      out.push_back(tok.ok() ? tok->name : "?");
    }
    return out;
  }

  std::unique_ptr<Store> store_;
  std::unique_ptr<XPathEvaluator> evaluator_;
};

TEST_F(XPathEvalTest, AbsoluteChildPath) {
  auto hits = Eval("/site/regions/europe/item");
  EXPECT_EQ(hits.size(), 2u);
  auto empty = Eval("/site/nosuch");
  EXPECT_TRUE(empty.empty());
}

TEST_F(XPathEvalTest, DescendantAxisFindsAllDepths) {
  EXPECT_EQ(Eval("//item").size(), 3u);
  EXPECT_EQ(Eval("//name").size(), 5u);  // 3 item names + 2 person names
  EXPECT_EQ(Eval("/site//name").size(), 5u);
  EXPECT_EQ(Eval("//regions//name").size(), 3u);
}

TEST_F(XPathEvalTest, WildcardAndKindTests) {
  EXPECT_EQ(Eval("/site/*").size(), 2u);  // regions, people
  EXPECT_EQ(Eval("//europe/*").size(), 2u);
  EXPECT_EQ(Eval("//comment()").size(), 1u);
  // node() selects elements, text, comments — not attributes.
  auto kids = Eval("//person[@id='p2']/node()");
  EXPECT_EQ(kids.size(), 1u);  // just <name>
}

TEST_F(XPathEvalTest, AttributeAxis) {
  EXPECT_EQ(Eval("//item/@id").size(), 3u);
  EXPECT_EQ(Eval("//item/@*").size(), 6u);  // id + category each
  EXPECT_EQ(Eval("//@category").size(), 3u);
  EXPECT_EQ(Eval("/site/@id").size(), 0u);
}

TEST_F(XPathEvalTest, PositionPredicates) {
  auto first = Eval("/site/regions/europe/item[1]");
  ASSERT_EQ(first.size(), 1u);
  ASSERT_OK_AND_ASSIGN(std::string value,
                       evaluator_->StringValue(first[0]));
  EXPECT_EQ(value, "Iliad2");  // name + qty text concatenation
  auto second = Eval("/site/regions/europe/item[2]");
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second[0], first[0]);
  EXPECT_TRUE(Eval("/site/regions/europe/item[3]").empty());
}

TEST_F(XPathEvalTest, ExistencePredicates) {
  auto with_card = Eval("//person[creditcard]");
  ASSERT_EQ(with_card.size(), 1u);
  auto named = Eval("//item[name]");
  EXPECT_EQ(named.size(), 3u);
  EXPECT_TRUE(Eval("//item[bogus]").empty());
}

TEST_F(XPathEvalTest, EqualityPredicates) {
  EXPECT_EQ(Eval("//item[@category='books']").size(), 2u);
  EXPECT_EQ(Eval("//item[name='Analects']").size(), 1u);
  EXPECT_EQ(Eval("//item[qty='5']").size(), 1u);
  EXPECT_TRUE(Eval("//item[@category='nope']").empty());
  // Nested predicate path.
  EXPECT_EQ(Eval("//regions[europe/item]").size(), 1u);
}

TEST_F(XPathEvalTest, ResultsAreInDocumentOrder) {
  auto names = Eval("//name");
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);  // insert-time ids = doc order here
  }
}

TEST_F(XPathEvalTest, TextTest) {
  auto texts = Eval("//person/name/text()");
  ASSERT_EQ(texts.size(), 2u);
  ASSERT_OK_AND_ASSIGN(std::string ada, evaluator_->StringValue(texts[0]));
  EXPECT_EQ(ada, "Ada");
}

TEST_F(XPathEvalTest, StringValueOfElementConcatenatesDescendants) {
  auto people = Eval("/site/people");
  ASSERT_EQ(people.size(), 1u);
  ASSERT_OK_AND_ASSIGN(std::string value,
                       evaluator_->StringValue(people[0]));
  EXPECT_EQ(value, "Ada1111Bob");
}

TEST_F(XPathEvalTest, EveryPlanIsFresh) {
  // One evaluator across a mutation: every plan reads the live store.
  const size_t elements_before = Eval("//*").size();
  EXPECT_EQ(Eval("//person").size(), 2u);  // cold: scans, warms the index
  EXPECT_EQ(Eval("//person").size(), 2u);  // warm: structural join
  EXPECT_EQ(Eval("//person[@id]").size(), 2u);
  ASSERT_LAXML_OK(
      store_
          ->InsertIntoLast(Eval("/site/people")[0],
                           MustFragment("<person id=\"p3\"/>"))
          .status());
  // The insert invalidated the index; the join re-warms by scanning.
  EXPECT_EQ(Eval("//person").size(), 3u);
  EXPECT_EQ(Eval("//person").size(), 3u);
  // Wildcard and predicate queries scan the live store too.
  EXPECT_EQ(Eval("//*").size(), elements_before + 1);
  EXPECT_EQ(Eval("//person[@id]").size(), 3u);
  EXPECT_EQ(Eval("//person[@id='p3']").size(), 1u);
}

TEST_F(XPathEvalTest, RelativePathAnchorsAtTopLevel) {
  EXPECT_EQ(Eval("site/regions").size(), 1u);
}

}  // namespace
}  // namespace laxml
