// Deterministic fuzz-style robustness tests: every byte-level decoder
// in the system must reject arbitrary garbage with a Status — no
// crashes, no hangs, no fabricated data — and every accepted input must
// round-trip consistently.

#include <gtest/gtest.h>

#include "common/random.h"
#include "ids/ordpath.h"
#include "net/wire.h"
#include "test_util.h"
#include "query/xpath_parser.h"
#include "wal/log_format.h"
#include "xml/serializer.h"
#include "xml/token_codec.h"
#include "xml/tokenizer.h"

namespace laxml {
namespace {

std::vector<uint8_t> RandomBytes(Random* rng, size_t max_len) {
  std::vector<uint8_t> out(rng->Uniform(max_len) + 1);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng->Next64());
  return out;
}

TEST(FuzzRobustnessTest, TokenDecoderNeverCrashesOnGarbage) {
  Random rng(1);
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    std::vector<uint8_t> bytes = RandomBytes(&rng, 200);
    auto decoded = DecodeTokens(Slice(bytes));
    if (decoded.ok()) {
      ++accepted;
      // Anything accepted must re-encode to the identical bytes.
      EXPECT_EQ(EncodeTokens(*decoded), bytes) << "iteration " << i;
    } else {
      EXPECT_TRUE(decoded.status().IsCorruption());
    }
  }
  // Random bytes rarely form valid token streams; mostly rejections.
  EXPECT_LT(accepted, 600);
}

TEST(FuzzRobustnessTest, TokenDecoderOnMutatedValidStreams) {
  Random rng(2);
  TokenSequence base = testing::MustFragment(
      "<a x=\"1\"><b>text</b><!--c--><?p d?></a>");
  std::vector<uint8_t> good = EncodeTokens(base);
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> bytes = good;
    // 1-3 byte mutations.
    int mutations = 1 + static_cast<int>(rng.Uniform(3));
    for (int m = 0; m < mutations; ++m) {
      bytes[rng.Uniform(bytes.size())] = static_cast<uint8_t>(rng.Next64());
    }
    auto decoded = DecodeTokens(Slice(bytes));
    if (decoded.ok()) {
      EXPECT_EQ(EncodeTokens(*decoded), bytes);
    }
  }
}

TEST(FuzzRobustnessTest, XmlParserNeverCrashesOnGarbage) {
  Random rng(3);
  static const char kSoup[] = "<>/=\"'abcdef &;!?-[]";
  for (int i = 0; i < 3000; ++i) {
    std::string text;
    size_t len = rng.Uniform(120) + 1;
    for (size_t k = 0; k < len; ++k) {
      text.push_back(kSoup[rng.Uniform(sizeof(kSoup) - 1)]);
    }
    auto parsed = ParseFragment(text);
    if (parsed.ok()) {
      // Accepted inputs produce well-formed, serializable fragments.
      EXPECT_TRUE(CheckWellFormedFragment(*parsed).ok()) << text;
      EXPECT_TRUE(SerializeTokens(*parsed).ok()) << text;
    } else {
      EXPECT_TRUE(parsed.status().IsParseError()) << text;
    }
  }
}

TEST(FuzzRobustnessTest, XmlRoundTripOnGeneratedDocuments) {
  Random rng(4);
  for (int i = 0; i < 50; ++i) {
    // Escape-heavy content.
    std::string value;
    static const char kChars[] = "<>&\"' abc\n\t";
    for (int k = 0; k < 40; ++k) {
      value.push_back(kChars[rng.Uniform(sizeof(kChars) - 1)]);
    }
    TokenSequence doc = SequenceBuilder()
                            .BeginElement("e")
                            .Attribute("a", value)
                            .Text(value)
                            .End()
                            .Build();
    ASSERT_OK_AND_ASSIGN(std::string xml, SerializeTokens(doc));
    ASSERT_OK_AND_ASSIGN(TokenSequence back, ParseFragment(xml));
    EXPECT_EQ(back, doc) << xml;
  }
}

TEST(FuzzRobustnessTest, WalDecoderNeverCrashesOnGarbage) {
  Random rng(5);
  for (int i = 0; i < 3000; ++i) {
    std::vector<uint8_t> bytes = RandomBytes(&rng, 300);
    const uint8_t* p = bytes.data();
    WalRecord record;
    // Any status is fine; the CRC gate makes acceptance of random bytes
    // astronomically unlikely, and nothing may crash.
    Status st = DecodeWalRecord(&p, bytes.data() + bytes.size(), &record);
    if (st.ok()) {
      EXPECT_LE(p, bytes.data() + bytes.size());
    }
  }
}

TEST(FuzzRobustnessTest, OrdpathDecoderNeverCrashesOnGarbage) {
  Random rng(6);
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> bytes = RandomBytes(&rng, 40);
    auto decoded = OrdpathLabel::Decode(bytes);
    if (decoded.ok()) {
      // Accepted labels re-encode canonically... note varints are
      // canonical here, so the round trip is exact when all bytes were
      // consumed; otherwise decode simply ignored a suffix, which the
      // API permits. Just exercise Encode for crashes.
      (void)decoded->Encode();
    }
  }
}

// ---------------------------------------------------------------------
// Wire protocol (net/wire.h): the server feeds whatever the network
// delivers through TryDecodeFrame and DecodeRequest; the client feeds
// it through DecodeResponse. All of it must hold the same line as the
// storage decoders — Status errors, never crashes, never fabricated
// frames. These three suites push > 10000 malformed inputs through.

TEST(FuzzRobustnessTest, WireFrameDecoderNeverCrashesOnGarbage) {
  Random rng(8);
  int complete = 0;
  for (int i = 0; i < 4000; ++i) {
    std::vector<uint8_t> bytes = RandomBytes(&rng, 400);
    auto frame = net::TryDecodeFrame(Slice(bytes));
    if (!frame.ok()) {
      EXPECT_TRUE(frame.status().IsCorruption()) << "iteration " << i;
      continue;
    }
    if (!frame->complete) continue;  // wants more bytes — fine
    // The CRC gate makes random acceptance astronomically unlikely,
    // but if a frame does verify, its body must still decode safely.
    ++complete;
    EXPECT_LE(frame->frame_size, bytes.size());
    auto req = net::DecodeRequest(frame->body);
    if (!req.ok()) {
      EXPECT_TRUE(req.status().IsCorruption());
    }
    auto resp = net::DecodeResponse(frame->body);
    if (!resp.ok()) {
      EXPECT_TRUE(resp.status().IsCorruption());
    }
  }
  EXPECT_EQ(complete, 0);  // 1-in-2^32 per iteration; flag if ever hit
}

TEST(FuzzRobustnessTest, WireDecodersOnMutatedValidFrames) {
  Random rng(9);
  TokenSequence frag = testing::MustFragment("<f n=\"1\">payload</f>");
  // A pool of valid frames covering every payload shape, both
  // directions.
  std::vector<std::vector<uint8_t>> pool;
  {
    net::Request req;
    req.op = net::OpCode::kInsertIntoLast;
    req.request_id = 7;
    req.target = 3;
    req.data = frag;
    pool.emplace_back();
    EncodeRequest(req, &pool.back());
    req = {};
    req.op = net::OpCode::kXPath;
    req.request_id = 8;
    req.expr = "/f[n='1']";
    pool.emplace_back();
    EncodeRequest(req, &pool.back());
    net::Response resp;
    resp.op = net::OpCode::kReadNode;
    resp.request_id = 9;
    resp.tokens = frag;
    pool.emplace_back();
    EncodeResponse(resp, &pool.back());
    resp = {};
    resp.op = net::OpCode::kXPath;
    resp.request_id = 10;
    resp.ids = {1, 2, 3000};
    pool.emplace_back();
    EncodeResponse(resp, &pool.back());
    req = {};
    req.op = net::OpCode::kGetMetrics;
    req.request_id = 11;
    req.metrics_format = net::MetricsFormat::kPrometheus;
    pool.emplace_back();
    EncodeRequest(req, &pool.back());
    resp = {};
    resp.op = net::OpCode::kGetMetrics;
    resp.request_id = 12;
    resp.text = "laxml_server_requests_total 42\n";
    pool.emplace_back();
    EncodeResponse(resp, &pool.back());
  }
  for (int i = 0; i < 4000; ++i) {
    std::vector<uint8_t> bytes = pool[rng.Uniform(pool.size())];
    int mutations = 1 + static_cast<int>(rng.Uniform(3));
    for (int m = 0; m < mutations; ++m) {
      bytes[rng.Uniform(bytes.size())] = static_cast<uint8_t>(rng.Next64());
    }
    auto frame = net::TryDecodeFrame(Slice(bytes));
    if (!frame.ok()) {
      EXPECT_TRUE(frame.status().IsCorruption());
      continue;
    }
    if (!frame->complete) continue;  // length field mutated downward
    // Only an unlucky CRC-preserving mutation lands here; the body
    // decoders must still hold the no-crash line.
    auto req = net::DecodeRequest(frame->body);
    if (!req.ok()) {
      EXPECT_TRUE(req.status().IsCorruption());
    }
    auto resp = net::DecodeResponse(frame->body);
    if (!resp.ok()) {
      EXPECT_TRUE(resp.status().IsCorruption());
    }
  }
}

TEST(FuzzRobustnessTest, WireTruncatedFramesNeverError) {
  Random rng(10);
  TokenSequence frag = testing::MustFragment("<t>abcdefgh</t>");
  for (int i = 0; i < 3000; ++i) {
    net::Request req;
    req.op = net::OpCode::kInsertTopLevel;
    req.request_id = static_cast<uint64_t>(i);
    req.data = frag;
    std::vector<uint8_t> wire;
    EncodeRequest(req, &wire);
    // A truncated valid frame is always "incomplete", never Corruption:
    // closing the connection on a half-received frame would break
    // stream reassembly.
    size_t cut = rng.Uniform(wire.size());
    auto frame = net::TryDecodeFrame(Slice(wire.data(), cut));
    ASSERT_TRUE(frame.ok()) << "cut " << cut;
    EXPECT_FALSE(frame->complete) << "cut " << cut;
  }
}

TEST(FuzzRobustnessTest, XPathParserNeverCrashesOnGarbage) {
  Random rng(7);
  static const char kSoup[] = "/@*[]='abc()0123 ";
  for (int i = 0; i < 3000; ++i) {
    std::string expr;
    size_t len = rng.Uniform(40) + 1;
    for (size_t k = 0; k < len; ++k) {
      expr.push_back(kSoup[rng.Uniform(sizeof(kSoup) - 1)]);
    }
    // Must return ok or ParseError; anything else (or a crash) fails.
    auto parsed = ParseXPath(expr);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsParseError()) << expr;
    }
  }
}

TEST(FuzzRobustnessTest, XPathParserRefusesDeepNestingAndHugeIntegers) {
  // 300 KB of nested predicates: a ParseError, not a stack overflow in
  // the parser or in the AST's destructor.
  std::string nested = "/a";
  for (int i = 0; i < 100000; ++i) nested += "[a";
  nested.append(100000, ']');
  EXPECT_TRUE(ParseXPath(nested).status().IsParseError());
  // Unclosed, and mixed with the other predicate kinds.
  EXPECT_TRUE(ParseXPath(nested.substr(0, 200000)).status().IsParseError());
  std::string mixed = "//a";
  for (int i = 0; i < 50000; ++i) mixed += i % 2 == 0 ? "[1][b" : "[c='x'][d";
  mixed.append(50000, ']');
  EXPECT_TRUE(ParseXPath(mixed).status().IsParseError());

  // Positions and '=' numbers that do not fit 64 bits.
  Random rng(11);
  for (int i = 0; i < 200; ++i) {
    std::string digits(20 + rng.Uniform(40), '9');
    for (char& c : digits) c = static_cast<char>('0' + rng.Uniform(10));
    digits[0] = static_cast<char>('2' + rng.Uniform(8));
    EXPECT_TRUE(ParseXPath("/a[" + digits + "]").status().IsParseError())
        << digits;
    EXPECT_TRUE(ParseXPath("/a[b=" + digits + "]").status().IsParseError())
        << digits;
  }
}

}  // namespace
}  // namespace laxml
