// Serializer tests: escaping, empty-element collapsing, compact output
// for documents, and rejection of malformed sequences.

#include "xml/serializer.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "xml/tokenizer.h"

namespace laxml {
namespace {

using testing::MustFragment;

TEST(SerializerTest, EscapesTextAndAttributes) {
  TokenSequence tokens = SequenceBuilder()
                             .BeginElement("a")
                             .Attribute("q", "say \"hi\" & <bye>")
                             .Text("1 < 2 & 3 > 2")
                             .End()
                             .Build();
  ASSERT_OK_AND_ASSIGN(std::string xml, SerializeTokens(tokens));
  EXPECT_EQ(xml,
            "<a q=\"say &quot;hi&quot; &amp; &lt;bye&gt;\">"
            "1 &lt; 2 &amp; 3 &gt; 2</a>");
  // And it parses back to the same tokens.
  ASSERT_OK_AND_ASSIGN(TokenSequence back, ParseFragment(xml));
  EXPECT_EQ(back, tokens);
}

TEST(SerializerTest, SelfClosesEmptyElements) {
  ASSERT_OK_AND_ASSIGN(std::string xml,
                       SerializeTokens(MustFragment("<a></a>")));
  EXPECT_EQ(xml, "<a/>");
}

TEST(SerializerTest, DocumentsSerializeWithoutDeclaration) {
  TokenSequence doc{Token::BeginDocument(), Token::BeginElement("r"),
                    Token::EndElement(), Token::EndDocument()};
  ASSERT_OK_AND_ASSIGN(std::string xml, SerializeTokens(doc));
  EXPECT_EQ(xml, "<r/>");
}

TEST(SerializerTest, CommentsAndPIs) {
  ASSERT_OK_AND_ASSIGN(
      std::string xml,
      SerializeTokens(MustFragment("<a><!--hey--><?go now?></a>")));
  EXPECT_EQ(xml, "<a><!--hey--><?go now?></a>");
}

TEST(SerializerTest, RejectsAttributeOutsideStartTag) {
  TokenSequence bad = SequenceBuilder()
                          .BeginElement("a")
                          .Text("t")
                          .Attribute("late", "x")
                          .End()
                          .Build();
  EXPECT_TRUE(SerializeTokens(bad).status().IsInvalidArgument());
}

TEST(SerializerTest, RejectsUnbalancedSequences) {
  EXPECT_TRUE(SerializeTokens({Token::BeginElement("a")})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SerializeTokens({Token::EndElement()})
                  .status()
                  .IsInvalidArgument());
}

TEST(SerializerTest, MultiRootFragments) {
  ASSERT_OK_AND_ASSIGN(std::string xml,
                       SerializeTokens(MustFragment("<a/>mid<b/>")));
  EXPECT_EQ(xml, "<a/>mid<b/>");
}

}  // namespace
}  // namespace laxml
