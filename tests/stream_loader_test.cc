// StreamTokenizer tests: where chunk boundaries fall must not change the
// result — including boundaries in the middle of multi-byte UTF-8
// sequences, tags, entity references, CDATA markers, and comments — and
// explicit expected token lists pin the grammar of both inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "test_util.h"
#include "xml/token_codec.h"
#include "xml/tokenizer.h"

namespace laxml {
namespace {

using Input = StreamTokenizer::Input;

/// Streams `xml` into tokens, split into `chunk`-byte pieces.
Result<TokenSequence> StreamParse(const std::string& xml, size_t chunk,
                                  Input input) {
  StreamTokenizer tok(input);
  TokenSequence out;
  for (size_t i = 0; i < xml.size(); i += chunk) {
    LAXML_RETURN_IF_ERROR(
        tok.Feed(std::string_view(xml).substr(i, chunk), &out));
  }
  LAXML_RETURN_IF_ERROR(tok.Finish(&out));
  return out;
}

/// Feeding `xml` in 1, 2, 3 and 7-byte pieces gives what feeding it
/// whole gives: the same tokens, or the same error. Returns the tokens
/// of the whole feed.
TokenSequence ExpectChunkInvariant(const std::string& xml,
                                   Input input = Input::kDocument) {
  auto whole = StreamParse(xml, std::max<size_t>(xml.size(), 1), input);
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    auto streamed = StreamParse(xml, chunk, input);
    EXPECT_EQ(streamed.status().ToString(), whole.status().ToString())
        << "chunk=" << chunk;
    if (streamed.ok() && whole.ok()) {
      EXPECT_EQ(EncodeTokens(*streamed), EncodeTokens(*whole))
          << "chunk=" << chunk;
    }
  }
  return whole.ok() ? *whole : TokenSequence{};
}

TEST(StreamLoaderTest, ChunkingIsInvisibleOnPlainDocument) {
  TokenSequence tokens =
      ExpectChunkInvariant("<db><a x=\"1\">hi</a><b/></db>");
  EXPECT_EQ(tokens, SequenceBuilder()
                        .BeginDocument()
                        .BeginElement("db")
                        .BeginElement("a")
                        .Attribute("x", "1")
                        .Text("hi")
                        .End()
                        .BeginElement("b")
                        .End()
                        .End()
                        .EndDocument()
                        .Build());
}

TEST(StreamLoaderTest, PrologAndMiscGiveExpectedTokens) {
  TokenSequence tokens = ExpectChunkInvariant(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE db [<!ELEMENT db ANY>]>\n"
      "<!-- leading -->\n"
      "<?target data here?>\n"
      "<db attr='v&amp;w'>text &lt;escaped&gt; &#x41;&#66;"
      "<![CDATA[raw <markup> & stuff]]>"
      "<inner a=\"x>y\" b='c\"d'>mixed</inner>"
      "<!-- middle --></db>\n"
      "<!-- trailing -->");
  // The declaration, the DOCTYPE and the whitespace between top-level
  // items leave no tokens.
  EXPECT_EQ(tokens, SequenceBuilder()
                        .BeginDocument()
                        .Comment(" leading ")
                        .PI("target", "data here")
                        .BeginElement("db")
                        .Attribute("attr", "v&w")
                        .Text("text <escaped> AB")
                        .Text("raw <markup> & stuff")
                        .BeginElement("inner")
                        .Attribute("a", "x>y")
                        .Attribute("b", "c\"d")
                        .Text("mixed")
                        .End()
                        .Comment(" middle ")
                        .End()
                        .Comment(" trailing ")
                        .EndDocument()
                        .Build());
}

TEST(StreamLoaderTest, FragmentKeepsTopLevelTextAndMisc) {
  TokenSequence tokens = ExpectChunkInvariant(
      "  lead &amp; text<!--c--><?pi  some data?>\n"
      "<![CDATA[x<y]]><a> in </a>\t<?xml not a prolog?>tail<b/> ",
      Input::kFragment);
  EXPECT_EQ(tokens, SequenceBuilder()
                        .Text("  lead & text")
                        .Comment("c")
                        .PI("pi", "some data")
                        .Text("\n")
                        .Text("x<y")
                        .BeginElement("a")
                        .Text(" in ")
                        .End()
                        .Text("\t")
                        .PI("xml", "not a prolog")
                        .Text("tail")
                        .BeginElement("b")
                        .End()
                        .Text(" ")
                        .Build());
}

TEST(StreamLoaderTest, FragmentErrorsAreChunkInvariant) {
  for (const char* xml : {"text</a>", "<a>open", "<a x='1'", "<!DOCTYPE x>",
                          "a &bogus; b", "<!--unterminated", "<a></b>"}) {
    SCOPED_TRACE(xml);
    ExpectChunkInvariant(xml, Input::kFragment);
    EXPECT_TRUE(StreamParse(xml, 1, Input::kFragment).status().IsParseError());
  }
}

TEST(StreamLoaderTest, Utf8SplitAtEveryBytePosition) {
  // Multi-byte content in text, attribute values, comments, and names'
  // neighborhoods; 1-byte chunks cut every UTF-8 sequence. IsNameChar
  // uses isalpha on unsigned chars, locale-dependent for >= 0x80, so
  // the first document may be rejected — at the same byte either way.
  ExpectChunkInvariant(
      "<résumé note=\"café ☃\">"
      "snögubbe — \U0001F600 über"
      "<!--köttbullar--></résumé>");
  TokenSequence tokens = ExpectChunkInvariant(
      "<r note=\"café ☃\">snögubbe — \U0001F600"
      "<!--köttbullar--></r>");
  EXPECT_EQ(tokens, SequenceBuilder()
                        .BeginDocument()
                        .BeginElement("r")
                        .Attribute("note", "café ☃")
                        .Text("snögubbe — \U0001F600")
                        .Comment("köttbullar")
                        .End()
                        .EndDocument()
                        .Build());
}

TEST(StreamLoaderTest, GiantTextRunStreamsWithoutMarkup) {
  std::string text(100000, 'x');
  text.replace(50000, 5, "&amp;");
  TokenSequence tokens = ExpectChunkInvariant("<db>" + text + "</db>");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[2].value.size(), text.size() - 4);
  EXPECT_EQ(tokens[2].value[50000], '&');
}

TEST(StreamLoaderTest, ErrorsAreSticky) {
  StreamTokenizer tok;
  TokenSequence out;
  Status st = tok.Feed("<a></b>", &out);
  EXPECT_FALSE(st.ok());
  Status again = tok.Feed("<more/>", &out);
  EXPECT_EQ(again.ToString(), st.ToString());
  EXPECT_FALSE(tok.Finish(&out).ok());
}

TEST(StreamLoaderTest, RejectsUnclosedDocumentAtFinish) {
  StreamTokenizer tok;
  TokenSequence out;
  ASSERT_LAXML_OK(tok.Feed("<db><open>", &out));
  EXPECT_FALSE(tok.Finish(&out).ok());
}

TEST(StreamLoaderTest, RejectsMultipleRoots) {
  StreamTokenizer tok;
  TokenSequence out;
  ASSERT_LAXML_OK(tok.Feed("<a/><b/>", &out));
  Status st = tok.Finish(&out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("exactly one root"), std::string::npos);
}

TEST(StreamLoaderTest, BufferStaysBoundedByConstructSize) {
  StreamTokenizer tok;
  TokenSequence out;
  // 1000 small elements fed in one go: everything drains.
  std::string xml = "<db>";
  for (int i = 0; i < 1000; ++i) xml += "<e a=\"1\">t</e>";
  ASSERT_LAXML_OK(tok.Feed(xml, &out));
  EXPECT_EQ(tok.buffered_bytes(), 0u);
  // A start tag cut short waits whole, then completes.
  ASSERT_LAXML_OK(tok.Feed("<e a=\"1", &out));
  EXPECT_EQ(tok.buffered_bytes(), 7u);
  ASSERT_LAXML_OK(tok.Feed("\"/></db>", &out));
  EXPECT_EQ(tok.buffered_bytes(), 0u);
  ASSERT_LAXML_OK(tok.Finish(&out));
}

}  // namespace
}  // namespace laxml
