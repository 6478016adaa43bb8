// Binary token codec tests: roundtrips of the inline (WAL / wire) and
// the stored (range payload) form, offset bookkeeping (the partial
// index memoizes these offsets), Skip fast-path, and corruption
// rejection.

#include "xml/token_codec.h"

#include <gtest/gtest.h>

#include <set>

#include "common/varint.h"
#include "test_util.h"
#include "xml/token_sequence.h"

namespace laxml {
namespace {

TokenSequence SampleTokens() {
  return SequenceBuilder()
      .BeginElement("ticket")
      .Attribute("id", "42")
      .BeginElement("hour")
      .Text("15")
      .End()
      .Comment("a comment")
      .PI("proc", "data")
      .End()
      .Build();
}

TEST(TokenCodecTest, RoundTripsEveryTokenKind) {
  TokenSequence tokens = SampleTokens();
  tokens.push_back(Token::BeginDocument());
  tokens.push_back(Token::EndDocument());
  std::vector<uint8_t> encoded = EncodeTokens(tokens);
  ASSERT_OK_AND_ASSIGN(TokenSequence decoded, DecodeTokens(Slice(encoded)));
  EXPECT_EQ(decoded, tokens);
}

TEST(TokenCodecTest, EncodedSizeMatchesActual) {
  for (const Token& t : SampleTokens()) {
    std::vector<uint8_t> buf;
    EncodeToken(t, &buf);
    EXPECT_EQ(buf.size(), EncodedTokenSize(t)) << t.ToString();
  }
}

TEST(TokenCodecTest, PsviAnnotationSurvives) {
  Token t = Token::Text("123");
  t.psvi_type = 7;
  std::vector<uint8_t> buf;
  EncodeToken(t, &buf);
  ASSERT_OK_AND_ASSIGN(TokenSequence decoded, DecodeTokens(Slice(buf)));
  EXPECT_EQ(decoded[0].psvi_type, 7u);
}

TEST(TokenCodecTest, EndElementIsFourBytes) {
  // Low storage overhead: the most common structural token is tiny.
  std::vector<uint8_t> buf;
  EncodeToken(Token::EndElement(), &buf);
  EXPECT_EQ(buf.size(), 4u);
}

/// The stored form of `tokens`, names interned into `dict`; checks that
/// each token appends exactly the bytes it encodes to alone, within
/// MaxEncodedTokenSize.
std::vector<uint8_t> EncodeStored(const TokenSequence& tokens,
                                  NameDictionary* dict) {
  std::vector<uint8_t> buf;
  for (const Token& t : tokens) {
    std::vector<uint8_t> one;
    EncodeTokenWith(t, dict, &one);
    EXPECT_LE(one.size(), MaxEncodedTokenSize(t)) << t.ToString();
    const size_t before = buf.size();
    EncodeTokenWith(t, dict, &buf);
    EXPECT_EQ(std::vector<uint8_t>(buf.begin() + before, buf.end()), one)
        << t.ToString();
  }
  return buf;
}

TEST(TokenCodecTest, FormsDifferOnlyInElementAndAttributeNames) {
  const uint8_t begin = static_cast<uint8_t>(TokenType::kBeginElement);
  // The inline form: [type][name_len][name][value_len][value][psvi].
  std::vector<uint8_t> inline_form;
  EncodeToken(Token::BeginElement("ab"), &inline_form);
  EXPECT_EQ(inline_form, (std::vector<uint8_t>{begin, 2, 'a', 'b', 0, 0}));
  // Stored with a symbol: the name field is the symbol id + 1.
  NameDictionary dict;
  EXPECT_EQ(EncodeStored({Token::BeginElement("ab")}, &dict),
            (std::vector<uint8_t>{begin, 1, 0, 0}));
  // Stored without one: code 0, then the inline name field.
  EXPECT_EQ(EncodeStored({Token::BeginElement("ab")}, nullptr),
            (std::vector<uint8_t>{begin, 0, 2, 'a', 'b', 0, 0}));
  // Every other token type stores exactly its inline form.
  for (const Token& t : SampleTokens()) {
    if (t.type == TokenType::kBeginElement ||
        t.type == TokenType::kBeginAttribute) {
      continue;
    }
    std::vector<uint8_t> one;
    EncodeToken(t, &one);
    EXPECT_EQ(EncodeStored({t}, &dict), one) << t.ToString();
  }
}

TEST(TokenCodecTest, ReaderTracksOffsets) {
  TokenSequence tokens = SampleTokens();
  NameDictionary dict;
  std::vector<uint8_t> encoded = EncodeStored(tokens, &dict);
  TokenReader reader{Slice(encoded), &dict};
  std::vector<size_t> offsets;
  Token t;
  while (!reader.AtEnd()) {
    offsets.push_back(reader.offset());
    ASSERT_LAXML_OK(reader.Next(&t));
  }
  ASSERT_EQ(offsets.size(), tokens.size());
  // Seeking to a recorded offset re-reads the same token.
  for (size_t i = 0; i < offsets.size(); ++i) {
    reader.SeekTo(offsets[i]);
    ASSERT_LAXML_OK(reader.Next(&t));
    EXPECT_EQ(t, tokens[i]) << "at offset " << offsets[i];
  }
}

TEST(TokenCodecTest, SkipAgreesWithNext) {
  TokenSequence tokens = SampleTokens();
  NameDictionary dict;
  std::vector<uint8_t> encoded = EncodeStored(tokens, &dict);
  TokenReader skipper{Slice(encoded), &dict};
  TokenReader reader{Slice(encoded), &dict};
  Token t;
  TokenType type;
  while (!reader.AtEnd()) {
    ASSERT_LAXML_OK(reader.Next(&t));
    ASSERT_LAXML_OK(skipper.Skip(&type));
    EXPECT_EQ(type, t.type);
    EXPECT_EQ(skipper.offset(), reader.offset());
  }
  EXPECT_TRUE(skipper.AtEnd());
}

TEST(TokenCodecTest, TruncatedBufferIsCorruption) {
  // Truncating either form exactly at a token boundary yields a
  // (shorter) valid stream; truncating anywhere else must fail.
  TokenSequence tokens = SampleTokens();
  std::vector<uint8_t> inline_form = EncodeTokens(tokens);
  std::set<size_t> inline_cuts{0};
  for (const Token& t : tokens) {
    inline_cuts.insert(*inline_cuts.rbegin() + EncodedTokenSize(t));
  }
  ASSERT_EQ(*inline_cuts.rbegin(), inline_form.size());
  for (size_t len = 1; len < inline_form.size(); ++len) {
    auto result = DecodeTokens(Slice(inline_form.data(), len));
    if (inline_cuts.count(len) > 0) {
      EXPECT_TRUE(result.ok()) << "inline boundary cut at " << len;
    } else {
      EXPECT_TRUE(result.status().IsCorruption())
          << "inline cut at " << len << ": " << result.status().ToString();
    }
  }
  NameDictionary dict;
  dict.Intern("ticket");
  dict.set_byte_budget(dict.SerializedSize());  // "id" and "hour" inline
  std::vector<uint8_t> stored = EncodeStored(tokens, &dict);
  std::set<size_t> stored_cuts{0, stored.size()};
  TokenReader reader{Slice(stored), &dict};
  Token t;
  while (!reader.AtEnd()) {
    ASSERT_LAXML_OK(reader.Next(&t));
    stored_cuts.insert(reader.offset());
  }
  for (size_t len = 1; len < stored.size(); ++len) {
    auto result = DecodeTokens(Slice(stored.data(), len), &dict);
    if (stored_cuts.count(len) > 0) {
      EXPECT_TRUE(result.ok()) << "stored boundary cut at " << len;
    } else {
      EXPECT_TRUE(result.status().IsCorruption())
          << "stored cut at " << len << ": " << result.status().ToString();
    }
  }
}

TEST(TokenCodecTest, OversizedPsviIsCorruptionForSkipAndNext) {
  // A psvi varint that decodes but does not fit a TypeAnnotation: both
  // decoders must refuse the same bytes, or a lazily decoded token
  // could fail after its header was accepted.
  std::vector<uint8_t> encoded;
  encoded.push_back(static_cast<uint8_t>(TokenType::kText));
  encoded.push_back(0);  // name length
  encoded.push_back(1);  // value length
  encoded.push_back('x');
  PutVarint64(&encoded, uint64_t{UINT32_MAX} + 1);
  // A text token's stored form is its inline form.
  NameDictionary dict;
  Token t;
  TokenType type;
  TokenReader reader{Slice(encoded), &dict};
  EXPECT_TRUE(reader.Next(&t).IsCorruption());
  TokenReader skipper{Slice(encoded), &dict};
  EXPECT_TRUE(skipper.Skip(&type).IsCorruption());
  EXPECT_TRUE(DecodeTokens(Slice(encoded)).status().IsCorruption());
  // The largest annotation still decodes every way.
  encoded.resize(4);
  PutVarint64(&encoded, UINT32_MAX);
  TokenReader ok_reader{Slice(encoded), &dict};
  ASSERT_LAXML_OK(ok_reader.Next(&t));
  EXPECT_EQ(t.psvi_type, UINT32_MAX);
  TokenReader ok_skipper{Slice(encoded), &dict};
  ASSERT_LAXML_OK(ok_skipper.Skip(&type));
  ASSERT_OK_AND_ASSIGN(TokenSequence decoded, DecodeTokens(Slice(encoded)));
  EXPECT_EQ(decoded[0].psvi_type, UINT32_MAX);
}

TEST(TokenCodecTest, InvalidTypeByteIsCorruption) {
  std::vector<uint8_t> encoded = EncodeTokens(SampleTokens());
  encoded[0] = 0xEE;
  EXPECT_TRUE(DecodeTokens(Slice(encoded)).status().IsCorruption());
}

TEST(TokenCodecTest, LargeTextRoundTrips) {
  std::string big(100000, 'x');
  TokenSequence tokens{Token::Text(big)};
  std::vector<uint8_t> encoded = EncodeTokens(tokens);
  ASSERT_OK_AND_ASSIGN(TokenSequence decoded, DecodeTokens(Slice(encoded)));
  EXPECT_EQ(decoded[0].value, big);
}

// ---------------------------------------------------------------------
// The stored form's dictionary-coded names.

TEST(StoredTokenFormTest, RoundTripsWithDictionary) {
  TokenSequence tokens = SampleTokens();
  NameDictionary dict;
  std::vector<uint8_t> encoded = EncodeStored(tokens, &dict);
  EXPECT_GT(dict.size(), 0u);
  ASSERT_OK_AND_ASSIGN(TokenSequence decoded,
                       DecodeTokens(Slice(encoded), &dict));
  EXPECT_EQ(decoded, tokens);
  // Next() reports a decoded begin token's symbol for symbol-aware
  // matching.
  TokenReader reader{Slice(encoded), &dict};
  Token first;
  ASSERT_LAXML_OK(reader.Next(&first));
  EXPECT_EQ(first, tokens[0]);
  EXPECT_EQ(reader.last_name_symbol(), dict.Find("ticket"));
}

TEST(StoredTokenFormTest, RepeatedTagsShrink) {
  SequenceBuilder b;
  for (int i = 0; i < 50; ++i) {
    b.BeginElement("purchaseOrder").Attribute("status", "ok").End();
  }
  TokenSequence tokens = b.Build();
  NameDictionary dict;
  std::vector<uint8_t> stored = EncodeStored(tokens, &dict);
  std::vector<uint8_t> inline_form = EncodeTokens(tokens);
  EXPECT_LT(stored.size() * 13, inline_form.size() * 10)
      << "expected >= 1.3x shrink: inline=" << inline_form.size()
      << " stored=" << stored.size();
}

TEST(StoredTokenFormTest, NullDictionaryMeansInlineNames) {
  TokenSequence tokens = SampleTokens();
  std::vector<uint8_t> encoded;
  for (const Token& t : tokens) {
    EncodeTokenWith(t, nullptr, &encoded);
  }
  // Still decodable with no dictionary: every name took the fallback.
  ASSERT_OK_AND_ASSIGN(TokenSequence decoded,
                       DecodeTokens(Slice(encoded), nullptr));
  EXPECT_EQ(decoded, tokens);
}

TEST(StoredTokenFormTest, FullDictionaryFallsBackPerName) {
  NameDictionary dict;
  dict.Intern("known");
  dict.set_byte_budget(dict.SerializedSize());  // no room for more
  TokenSequence tokens = SequenceBuilder()
                             .BeginElement("known")
                             .BeginElement("unknown-name")
                             .End()
                             .End()
                             .Build();
  std::vector<uint8_t> encoded = EncodeStored(tokens, &dict);
  EXPECT_EQ(dict.size(), 1u) << "budget-full dictionary must not grow";
  ASSERT_OK_AND_ASSIGN(TokenSequence decoded,
                       DecodeTokens(Slice(encoded), &dict));
  EXPECT_EQ(decoded, tokens);
  TokenReader reader{Slice(encoded), &dict};
  Token token;
  ASSERT_LAXML_OK(reader.Next(&token));
  EXPECT_EQ(reader.last_name_symbol(), 0u);
  ASSERT_LAXML_OK(reader.Next(&token));
  EXPECT_EQ(token.name, "unknown-name");
  EXPECT_EQ(reader.last_name_symbol(), kNoNameSymbol);
}

TEST(StoredTokenFormTest, DanglingSymbolIsCorruptionNotCrash) {
  NameDictionary dict;
  TokenSequence tokens{Token::BeginElement("tag"), Token::EndElement()};
  std::vector<uint8_t> encoded = EncodeStored(tokens, &dict);
  // Decode against an empty dictionary: symbol 0 dangles.
  NameDictionary empty;
  auto decoded = DecodeTokens(Slice(encoded), &empty);
  ASSERT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
  EXPECT_NE(decoded.status().ToString().find("dangling"), std::string::npos);
}

TEST(StoredTokenFormTest, ByteFuzzNeverReadsOutOfBounds) {
  NameDictionary dict;
  TokenSequence tokens = SampleTokens();
  std::vector<uint8_t> encoded = EncodeStored(tokens, &dict);
  // Every single-byte mutation and every truncation must either decode
  // cleanly or fail with Corruption — never crash or read OOB (run
  // under ASan in CI).
  for (size_t i = 0; i < encoded.size(); ++i) {
    for (uint8_t delta : {uint8_t{1}, uint8_t{0x7F}, uint8_t{0xFF}}) {
      std::vector<uint8_t> mutated = encoded;
      mutated[i] = static_cast<uint8_t>(mutated[i] + delta);
      auto result = DecodeTokens(Slice(mutated), &dict);
      if (!result.ok()) {
        EXPECT_TRUE(result.status().IsCorruption()) << "byte " << i;
      }
    }
    auto truncated =
        DecodeTokens(Slice(encoded.data(), i), &dict);
    if (!truncated.ok()) {
      EXPECT_TRUE(truncated.status().IsCorruption());
    }
  }
}

TEST(StoredTokenFormTest, SkipTracksSymbolsWithoutDictionary) {
  // Skip never resolves names, so a dictionary-less reader can still
  // walk a stored stream structurally (the auditor does this before the
  // dictionary itself is trusted).
  NameDictionary dict;
  std::vector<uint8_t> encoded = EncodeStored(SampleTokens(), &dict);
  TokenReader reader{Slice(encoded), nullptr};
  TokenType type;
  size_t n = 0;
  while (!reader.AtEnd()) {
    ASSERT_LAXML_OK(reader.Skip(&type));
    ++n;
  }
  EXPECT_EQ(n, SampleTokens().size());
  // With the dictionary, Skip reports each begin token's symbol.
  TokenReader with{Slice(encoded), &dict};
  ASSERT_LAXML_OK(with.Skip(&type));
  EXPECT_EQ(type, TokenType::kBeginElement);
  EXPECT_EQ(with.last_name_symbol(), dict.Find("ticket"));
}

TEST(TokenSequenceTest, CountNodeBegins) {
  EXPECT_EQ(CountNodeBegins(SampleTokens()), 6u);
  EXPECT_EQ(CountNodeBegins({}), 0u);
  EXPECT_EQ(CountNodeBegins({Token::EndElement()}), 0u);
}

TEST(TokenSequenceTest, WellFormednessChecks) {
  EXPECT_TRUE(CheckWellFormedFragment(SampleTokens()).ok());
  EXPECT_TRUE(CheckWellFormedFragment({Token::BeginElement("a")})
                  .IsInvalidArgument());
  EXPECT_TRUE(CheckWellFormedFragment({Token::EndElement()})
                  .IsInvalidArgument());
  // Attribute scopes may not contain children.
  TokenSequence bad{Token::BeginElement("a"),
                    Token::BeginAttribute("x", "v"),
                    Token::Text("nested"), Token::EndAttribute(),
                    Token::EndElement()};
  EXPECT_TRUE(CheckWellFormedFragment(bad).IsInvalidArgument());
}

TEST(TokenSequenceTest, SubtreeEnd) {
  TokenSequence tokens = SampleTokens();
  // Token 0 = <ticket> spans everything.
  ASSERT_OK_AND_ASSIGN(size_t end, SubtreeEnd(tokens, 0));
  EXPECT_EQ(end, tokens.size());
  // Token 3 = <hour> spans 3 tokens.
  ASSERT_OK_AND_ASSIGN(size_t hour_end, SubtreeEnd(tokens, 3));
  EXPECT_EQ(hour_end, 6u);
  // Token 4 = text: single token node.
  ASSERT_OK_AND_ASSIGN(size_t text_end, SubtreeEnd(tokens, 4));
  EXPECT_EQ(text_end, 5u);
  // End tokens begin no node.
  EXPECT_TRUE(SubtreeEnd(tokens, 2).status().IsInvalidArgument());
}

}  // namespace
}  // namespace laxml
