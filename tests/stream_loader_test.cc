// StreamTokenizer tests: chunked parsing must be byte-identical to the
// batch ParseDocument no matter where chunk boundaries fall — including
// in the middle of multi-byte UTF-8 sequences, tags, entity references,
// CDATA markers, and comments.

#include "xml/stream_loader.h"

#include <gtest/gtest.h>

#include <string>

#include "test_util.h"
#include "xml/token_codec.h"
#include "xml/tokenizer.h"

namespace laxml {
namespace {

/// Streams `xml` into tokens, split into `chunk` -byte pieces.
Result<TokenSequence> StreamParse(const std::string& xml, size_t chunk) {
  StreamTokenizer tok;
  TokenSequence out;
  for (size_t i = 0; i < xml.size(); i += chunk) {
    LAXML_RETURN_IF_ERROR(
        tok.Feed(std::string_view(xml).substr(i, chunk), &out));
  }
  LAXML_RETURN_IF_ERROR(tok.Finish(&out));
  return out;
}

void ExpectMatchesBatch(const std::string& xml) {
  auto batch = ParseDocument(xml);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  // Every chunk size from 1 byte up: boundaries land on every position.
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                       xml.size() == 0 ? size_t{1} : xml.size()}) {
    auto streamed = StreamParse(xml, chunk);
    ASSERT_TRUE(streamed.ok())
        << "chunk=" << chunk << ": " << streamed.status().ToString();
    EXPECT_EQ(EncodeTokens(*streamed), EncodeTokens(*batch))
        << "chunk=" << chunk;
  }
}

TEST(StreamLoaderTest, MatchesBatchOnPlainDocument) {
  ExpectMatchesBatch("<db><a x=\"1\">hi</a><b/></db>");
}

TEST(StreamLoaderTest, MatchesBatchOnPrologAndMisc) {
  ExpectMatchesBatch(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE db [<!ELEMENT db ANY>]>\n"
      "<!-- leading -->\n"
      "<?target data here?>\n"
      "<db attr='v&amp;w'>text &lt;escaped&gt; &#x41;&#66;"
      "<![CDATA[raw <markup> & stuff]]>"
      "<inner a=\"x>y\" b='c\"d'>mixed</inner>"
      "<!-- middle --></db>\n"
      "<!-- trailing -->");
}

TEST(StreamLoaderTest, Utf8SplitAtEveryBytePosition) {
  // Multi-byte content in text, attribute values, comments, and names'
  // neighborhoods; 1-byte chunks cut every UTF-8 sequence.
  const std::string xml =
      "<résumé note=\"café ☃\">"
      "snögubbe — \U0001F600 über"
      "<!--köttbullar--></résumé>";
  // Names with non-ASCII bytes: IsNameChar uses isalpha on unsigned
  // chars, locale-dependent for >= 0x80 — so only assert text/attr
  // handling if the batch parser accepts the document at all.
  auto batch = ParseDocument(xml);
  if (batch.ok()) {
    ExpectMatchesBatch(xml);
  }
  const std::string ascii_names =
      "<r note=\"café ☃\">snögubbe — \U0001F600"
      "<!--köttbullar--></r>";
  ExpectMatchesBatch(ascii_names);
}

TEST(StreamLoaderTest, GiantTextRunStreamsWithoutMarkup) {
  std::string xml = "<db>";
  std::string text(100000, 'x');
  text[50000] = '&';
  text.replace(50000, 5, "&amp;");
  xml += text + "</db>";
  ExpectMatchesBatch(xml);
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
  ASSERT_LAXML_OK(tok.Feed("</db>", &out));
  ASSERT_LAXML_OK(tok.Finish(&out));
}

}  // namespace
}  // namespace laxml
