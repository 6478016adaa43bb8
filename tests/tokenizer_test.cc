// Parser tests, anchored on the paper's Figure 1 example, plus coverage
// of attributes, CDATA, comments, PIs, entities, the prolog, and error
// reporting.

#include "xml/tokenizer.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

TEST(TokenizerTest, Figure1TicketExample) {
  // The paper's Figure 1: <ticket><hour>15</hour><name>Paul</name></ticket>
  ASSERT_OK_AND_ASSIGN(
      TokenSequence tokens,
      ParseFragment("<ticket><hour> 15 </hour><name>Paul</name></ticket>"));
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[0], Token::BeginElement("ticket"));
  EXPECT_EQ(tokens[1], Token::BeginElement("hour"));
  EXPECT_EQ(tokens[2], Token::Text(" 15 "));
  EXPECT_EQ(tokens[3], Token::EndElement());
  EXPECT_EQ(tokens[4], Token::BeginElement("name"));
  EXPECT_EQ(tokens[5], Token::Text("Paul"));
  EXPECT_EQ(tokens[6], Token::EndElement());
  EXPECT_EQ(tokens[7], Token::EndElement());
}

TEST(TokenizerTest, AttributesGetOwnBeginEndTokens) {
  ASSERT_OK_AND_ASSIGN(TokenSequence tokens,
                       ParseFragment("<a id=\"1\" class='x y'/>"));
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0], Token::BeginElement("a"));
  EXPECT_EQ(tokens[1], Token::BeginAttribute("id", "1"));
  EXPECT_EQ(tokens[2], Token::EndAttribute());
  EXPECT_EQ(tokens[3], Token::BeginAttribute("class", "x y"));
  EXPECT_EQ(tokens[4], Token::EndAttribute());
  EXPECT_EQ(tokens[5], Token::EndElement());
}

TEST(TokenizerTest, EntityReferences) {
  ASSERT_OK_AND_ASSIGN(
      TokenSequence tokens,
      ParseFragment("<a>&lt;b&gt; &amp; &quot;q&quot; &apos;s&apos;</a>"));
  EXPECT_EQ(tokens[1].value, "<b> & \"q\" 's'");
}

TEST(TokenizerTest, CharacterReferencesDecimalAndHex) {
  ASSERT_OK_AND_ASSIGN(TokenSequence tokens,
                       ParseFragment("<a>&#65;&#x42;&#x20AC;</a>"));
  EXPECT_EQ(tokens[1].value, "AB\xE2\x82\xAC");  // "AB€"
}

TEST(TokenizerTest, CDataIsLiteralText) {
  ASSERT_OK_AND_ASSIGN(
      TokenSequence tokens,
      ParseFragment("<a><![CDATA[<not> &amp; parsed]]></a>"));
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].value, "<not> &amp; parsed");
}

TEST(TokenizerTest, CommentsAndPIs) {
  ASSERT_OK_AND_ASSIGN(
      TokenSequence tokens,
      ParseFragment("<a><!--note--><?target data here?></a>"));
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1], Token::Comment("note"));
  EXPECT_EQ(tokens[2], Token::PI("target", "data here"));
}

TEST(TokenizerTest, DocumentWrapsInDocumentTokens) {
  ASSERT_OK_AND_ASSIGN(
      TokenSequence tokens,
      ParseDocument("<?xml version=\"1.0\"?>\n<root><a/></root>"));
  EXPECT_EQ(tokens.front().type, TokenType::kBeginDocument);
  EXPECT_EQ(tokens.back().type, TokenType::kEndDocument);
  EXPECT_EQ(tokens[1], Token::BeginElement("root"));
}

TEST(TokenizerTest, DoctypeIsSkipped) {
  ASSERT_OK_AND_ASSIGN(
      TokenSequence tokens,
      ParseDocument("<!DOCTYPE html [ <!ENTITY x \"y\"> ]><r/>"));
  EXPECT_EQ(tokens[1], Token::BeginElement("r"));
}

TEST(TokenizerTest, MultipleRootsRejectedForDocuments) {
  EXPECT_TRUE(ParseDocument("<a/><b/>").status().IsParseError());
  EXPECT_TRUE(ParseDocument("").status().IsParseError());
}

TEST(TokenizerTest, TextOutsideTheRootIsRejected) {
  for (std::string_view xml :
       {"xa/>", "x<a/>", "<a/>x", "<a/><![CDATA[x]]>"}) {
    Status st = ParseDocument(xml).status();
    ASSERT_TRUE(st.IsParseError()) << xml << ": " << st.ToString();
    EXPECT_NE(st.message().find("text outside the root element"),
              std::string::npos)
        << xml << ": " << st.ToString();
    // Fed one byte at a time, the tokenizer reports the same error.
    StreamTokenizer tokenizer;
    TokenSequence out;
    Status streamed;
    for (size_t i = 0; i < xml.size() && streamed.ok(); ++i) {
      streamed = tokenizer.Feed(xml.substr(i, 1), &out);
    }
    if (streamed.ok()) streamed = tokenizer.Finish(&out);
    EXPECT_EQ(streamed.ToString(), st.ToString()) << xml;
  }
}

TEST(TokenizerTest, FragmentsMayHaveMultipleRoots) {
  ASSERT_OK_AND_ASSIGN(TokenSequence tokens, ParseFragment("<a/>x<b/>"));
  EXPECT_EQ(tokens.size(), 5u);
}

TEST(TokenizerTest, MismatchedTagsFail) {
  Status st = ParseFragment("<a><b></a></b>").status();
  EXPECT_TRUE(st.IsParseError());
  EXPECT_NE(st.message().find("mismatched end tag"), std::string::npos);
}

TEST(TokenizerTest, ErrorsCarryLineNumbers) {
  Status st = ParseFragment("<a>\n<b>\n<c>\n</a>").status();
  ASSERT_TRUE(st.IsParseError());
  EXPECT_NE(st.message().find("line 4"), std::string::npos);
}

TEST(TokenizerTest, MalformedInputsFailCleanly) {
  EXPECT_TRUE(ParseFragment("<a").status().IsParseError());
  EXPECT_TRUE(ParseFragment("<a x>").status().IsParseError());
  EXPECT_TRUE(ParseFragment("<a x=>").status().IsParseError());
  EXPECT_TRUE(ParseFragment("<a x='unterminated>").status().IsParseError());
  EXPECT_TRUE(ParseFragment("<a>&unknown;</a>").status().IsParseError());
  EXPECT_TRUE(ParseFragment("<a><!--unterminated</a>")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseFragment("<1tag/>").status().IsParseError());
}

TEST(TokenizerTest, RoundTripThroughSerializer) {
  const std::string cases[] = {
      "<a/>",
      "<a>text</a>",
      "<a b=\"1\"><c>x</c>tail</a>",
      "<r><!--c--><?pi d?><x y=\"2\">&lt;&amp;&gt;</x></r>",
      "<deep><er><and><deeper>ok</deeper></and></er></deep>",
  };
  for (const std::string& xml : cases) {
    ASSERT_OK_AND_ASSIGN(TokenSequence tokens, ParseFragment(xml));
    ASSERT_OK_AND_ASSIGN(std::string back, SerializeTokens(tokens));
    EXPECT_EQ(back, xml) << "round trip mismatch";
  }
}

TEST(TokenizerTest, NamesWithNamespacePrefixesPassThrough) {
  ASSERT_OK_AND_ASSIGN(TokenSequence tokens,
                       ParseFragment("<ns:a ns:b=\"1\"/>"));
  EXPECT_EQ(tokens[0].name, "ns:a");
  EXPECT_EQ(tokens[1].name, "ns:b");
}

}  // namespace
}  // namespace laxml
