// XPath parser tests: the accepted grammar, ToString round-trips,
// and rejection of malformed expressions.

#include "query/xpath_parser.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace laxml {
namespace {

XPathPath MustParse(const std::string& expr) {
  auto result = ParseXPath(expr);
  EXPECT_TRUE(result.ok()) << expr << ": " << result.status().ToString();
  return result.ok() ? std::move(result).value() : XPathPath{};
}

TEST(XPathParserTest, SimpleChildPath) {
  XPathPath path = MustParse("/site/regions/africa");
  EXPECT_TRUE(path.absolute);
  ASSERT_EQ(path.steps.size(), 3u);
  EXPECT_EQ(path.steps[0].name, "site");
  EXPECT_EQ(path.steps[0].axis, XPathAxis::kChild);
  EXPECT_EQ(path.steps[2].name, "africa");
}

TEST(XPathParserTest, DescendantAxis) {
  XPathPath path = MustParse("//item/name");
  ASSERT_EQ(path.steps.size(), 2u);
  EXPECT_EQ(path.steps[0].axis, XPathAxis::kDescendant);
  EXPECT_EQ(path.steps[1].axis, XPathAxis::kChild);
  XPathPath mid = MustParse("/site//bidder");
  EXPECT_EQ(mid.steps[1].axis, XPathAxis::kDescendant);
}

TEST(XPathParserTest, AttributesAndKindTests) {
  XPathPath path = MustParse("/a/@id");
  EXPECT_EQ(path.steps[1].axis, XPathAxis::kAttribute);
  EXPECT_EQ(path.steps[1].name, "id");

  XPathPath anywhere = MustParse("//@category");
  EXPECT_EQ(anywhere.steps[0].axis, XPathAxis::kAttribute);
  EXPECT_TRUE(anywhere.steps[0].descendant_attr);

  XPathPath texts = MustParse("/a/text()");
  EXPECT_EQ(texts.steps[1].test, NodeTestKind::kText);
  XPathPath comments = MustParse("//comment()");
  EXPECT_EQ(comments.steps[0].test, NodeTestKind::kComment);
  XPathPath nodes = MustParse("/a/node()");
  EXPECT_EQ(nodes.steps[1].test, NodeTestKind::kAnyNode);
  XPathPath wild = MustParse("/a/*");
  EXPECT_EQ(wild.steps[1].test, NodeTestKind::kWildcard);
}

TEST(XPathParserTest, Predicates) {
  XPathPath pos = MustParse("/list/item[3]");
  ASSERT_EQ(pos.steps[1].predicates.size(), 1u);
  EXPECT_EQ(pos.steps[1].predicates[0].kind,
            XPathPredicate::Kind::kPosition);
  EXPECT_EQ(pos.steps[1].predicates[0].position, 3u);

  XPathPath exists = MustParse("//person[creditcard]");
  EXPECT_EQ(exists.steps[0].predicates[0].kind,
            XPathPredicate::Kind::kExists);
  EXPECT_EQ(exists.steps[0].predicates[0].path.steps[0].name, "creditcard");

  XPathPath eq = MustParse("//item[@category='books']");
  EXPECT_EQ(eq.steps[0].predicates[0].kind, XPathPredicate::Kind::kEquals);
  EXPECT_EQ(eq.steps[0].predicates[0].literal, "books");
  EXPECT_EQ(eq.steps[0].predicates[0].path.steps[0].axis,
            XPathAxis::kAttribute);

  XPathPath deep = MustParse("//open_auction[bidder/increase='5']");
  EXPECT_EQ(deep.steps[0].predicates[0].path.steps.size(), 2u);

  XPathPath multi = MustParse("/a/b[1][c='x']");
  EXPECT_EQ(multi.steps[1].predicates.size(), 2u);
}

TEST(XPathParserTest, NumericLiteralsInEquals) {
  XPathPath path = MustParse("//qty[text()=5]");
  EXPECT_EQ(path.steps[0].predicates[0].literal, "5");
}

TEST(XPathParserTest, RelativePathsAllowed) {
  XPathPath path = MustParse("item/name");
  EXPECT_FALSE(path.absolute);
  ASSERT_EQ(path.steps.size(), 2u);
}

TEST(XPathParserTest, ToStringRoundTrips) {
  for (const char* expr :
       {"/site/regions", "//item[@id='i1']/name", "/a/b[2]",
        "//person[creditcard]", "/a/*/text()", "//comment()"}) {
    XPathPath path = MustParse(expr);
    XPathPath again = MustParse(path.ToString());
    EXPECT_EQ(again.ToString(), path.ToString()) << expr;
  }
}

TEST(XPathParserTest, WhitespaceAndNameCharacters) {
  // Blanks between tokens change nothing.
  EXPECT_EQ(MustParse("/a / b").ToString(), MustParse("/a/b").ToString());
  XPathPath spaced = MustParse("//a[ b = 'x' ]");
  EXPECT_EQ(spaced.ToString(), MustParse("//a[b='x']").ToString());
  EXPECT_EQ(spaced.steps[0].predicates[0].literal, "x");

  XPathPath any_attr = MustParse("//@*");
  ASSERT_EQ(any_attr.steps.size(), 1u);
  EXPECT_EQ(any_attr.steps[0].axis, XPathAxis::kAttribute);
  EXPECT_TRUE(any_attr.steps[0].descendant_attr);
  EXPECT_EQ(any_attr.steps[0].test, NodeTestKind::kWildcard);

  // '-', '.', ':' and '_' are name characters; ':' and '_' start names.
  XPathPath names = MustParse("/x:a-b.c_d/_e/:f9");
  ASSERT_EQ(names.steps.size(), 3u);
  EXPECT_EQ(names.steps[0].name, "x:a-b.c_d");
  EXPECT_EQ(names.steps[1].name, "_e");
  EXPECT_EQ(names.steps[2].name, ":f9");
}

TEST(XPathParserTest, RejectsSpacedKindTestsAndNonAsciiNames) {
  EXPECT_TRUE(ParseXPath("/a/text ()").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/caf\xc3\xa9").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/\xc3\xa9t\xc3\xa9").status().IsParseError());
  EXPECT_TRUE(ParseXPath("//a[b\x80='x']").status().IsParseError());
}

TEST(XPathParserTest, RejectsIntegersThatOverflow) {
  // 2^64 - 1 is the largest position; one more wraps no more.
  XPathPath max = MustParse("/a[18446744073709551615]");
  EXPECT_EQ(max.steps[0].predicates[0].position, UINT64_MAX);
  EXPECT_TRUE(ParseXPath("/a[18446744073709551616]").status().IsParseError());
  EXPECT_TRUE(
      ParseXPath("/a[99999999999999999999999]").status().IsParseError());
  EXPECT_TRUE(
      ParseXPath("/a[b=99999999999999999999999]").status().IsParseError());
}

TEST(XPathParserTest, RejectsOverDeepPredicateNesting) {
  // kMaxStreamSteps (64) levels of nesting parse; one more is refused,
  // and so is a nesting deep enough to overflow a recursive descent.
  auto nested = [](size_t depth) {
    std::string expr = "/a";
    for (size_t i = 0; i < depth; ++i) expr += "[a";
    expr.append(depth, ']');
    return expr;
  };
  EXPECT_TRUE(ParseXPath(nested(64)).ok());
  EXPECT_TRUE(ParseXPath(nested(65)).status().IsParseError());
  EXPECT_TRUE(ParseXPath(nested(100000)).status().IsParseError());
}

TEST(XPathParserTest, RejectsGarbage) {
  EXPECT_TRUE(ParseXPath("").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/a[").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/a[]").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/a[0]").status().IsParseError());  // 1-based
  EXPECT_TRUE(ParseXPath("/a[b=]").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/a]").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/a[/b]").status().IsParseError());  // absolute
  EXPECT_TRUE(ParseXPath("/a['lonely']").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/a/unknown()").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/a[b='unterminated]").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/a ? b").status().IsParseError());
}

}  // namespace
}  // namespace laxml
