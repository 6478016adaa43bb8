// Shared helpers for laxml tests: status assertions, fragment builders,
// temp-file management, and a reference read of the store that shares
// no code with TokenCursor.

#ifndef LAXML_TESTS_TEST_UTIL_H_
#define LAXML_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/store.h"
#include "wal/log_format.h"
#include "xml/serializer.h"
#include "xml/token_codec.h"
#include "xml/token_sequence.h"
#include "xml/tokenizer.h"

/// Asserts an expression returning laxml::Status or laxml::Result<T>
/// is OK (the Result's value, if any, is deliberately discarded).
#define ASSERT_LAXML_OK(expr)                                   \
  do {                                                          \
    auto _res = (expr);                                         \
    ASSERT_TRUE(_res.ok())                                      \
        << ::laxml::testing::StatusOf(_res).ToString();         \
  } while (0)

#define EXPECT_LAXML_OK(expr)                                   \
  do {                                                          \
    auto _res = (expr);                                         \
    EXPECT_TRUE(_res.ok())                                      \
        << ::laxml::testing::StatusOf(_res).ToString();         \
  } while (0)

/// Unwraps a laxml::Result<T> into `lhs`, failing the test on error.
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                        \
  ASSERT_OK_AND_ASSIGN_IMPL(                                    \
      LAXML_ASSIGN_OR_RETURN_CONCAT(_test_result_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(var, lhs, rexpr)              \
  auto var = (rexpr);                                           \
  ASSERT_TRUE(var.ok()) << var.status().ToString();             \
  lhs = std::move(var).value()

namespace laxml {
namespace testing {

/// Overloads so the OK-assertion macros take either a Status or a
/// Result<T> (Result's [[nodiscard]] value is consumed by the macro).
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
inline const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

/// One store configuration of the index-parameterized suites: the eager
/// Full Index, the lazy Range Index alone, or the lazy Range Index with
/// the Partial Index memoizing what lookups find.
struct IndexConfig {
  const char* name;        // test-name suffix
  const char* short_name;  // compact suffix for test matrices
  IndexMode index_mode;
  size_t partial_index_capacity;

  void ApplyTo(StoreOptions* options) const {
    options->index_mode = index_mode;
    options->partial_index_capacity = partial_index_capacity;
  }
  bool memoizes() const {
    return index_mode == IndexMode::kRangeIndex && partial_index_capacity > 0;
  }
};

inline constexpr IndexConfig kFullIndexConfig{"FullIndex", "Full",
                                              IndexMode::kFullIndex, 0};
inline constexpr IndexConfig kRangeIndexConfig{"RangeIndex", "Range",
                                               IndexMode::kRangeIndex, 0};
inline constexpr IndexConfig kPartialIndexConfig{
    "RangeWithPartial", "Partial", IndexMode::kRangeIndex, 1 << 16};

/// The three configurations, in the order every suite instantiates them.
inline constexpr IndexConfig kIndexConfigs[] = {
    kFullIndexConfig, kRangeIndexConfig, kPartialIndexConfig};

/// Names a parameterized test after its configuration.
inline std::string IndexConfigName(
    const ::testing::TestParamInfo<IndexConfig>& info) {
  return info.param.name;
}

inline void PrintTo(const IndexConfig& config, std::ostream* os) {
  *os << config.name;
}

/// Parses an XML fragment, aborting the test process on failure (for
/// fixture setup where the XML is a literal).
inline TokenSequence MustFragment(const std::string& xml) {
  auto result = ParseFragment(xml);
  if (!result.ok()) {
    ADD_FAILURE() << "bad test fragment: " << result.status().ToString();
    return {};
  }
  return std::move(result).value();
}

/// Serializes tokens compactly, aborting on failure.
inline std::string MustSerialize(const TokenSequence& tokens) {
  auto result = SerializeTokens(tokens);
  if (!result.ok()) {
    ADD_FAILURE() << "serialize failed: " << result.status().ToString();
    return {};
  }
  return std::move(result).value();
}

/// The store's token stream and node ids (kInvalidNodeId for end
/// tokens), read without TokenCursor: each range on the chain decoded
/// whole under its own codec, ids counted up from its start id. Every
/// engine read runs on the cursor, so tests check those reads, and the
/// cursor itself, against this.
inline Result<TokenSequence> ReferenceRead(const Store& store,
                                           std::vector<NodeId>* ids) {
  const RangeManager& ranges = store.range_manager();
  TokenSequence out;
  ids->clear();
  for (RangeId r = ranges.first_range(); r != kInvalidRangeId;) {
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges.GetMeta(r));
    LAXML_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           ranges.ReadPayload(r));
    LAXML_ASSIGN_OR_RETURN(
        TokenSequence tokens,
        DecodeTokens(Slice(payload), ranges.codec_for(meta)));
    NodeId next_id = meta.start_id;
    for (Token& token : tokens) {
      ids->push_back(token.BeginsNode() ? next_id++ : kInvalidNodeId);
      out.push_back(std::move(token));
    }
    r = meta.next;
  }
  return out;
}

/// Flips one bit (0x10) of the byte at `offset` in the file — the
/// canonical "cosmic ray" for corruption tests.
inline void FlipBit(const std::string& path, long offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << "cannot open " << path;
  f.seekg(offset);
  char byte;
  f.read(&byte, 1);
  byte ^= 0x10;
  f.seekp(offset);
  f.write(&byte, 1);
}

/// Size of a file in bytes, or -1 when it cannot be opened.
inline long FileSize(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return static_cast<long>(f.tellg());
}

/// Whole file contents; a file that cannot be opened fails the test.
inline std::vector<uint8_t> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<uint8_t> bytes;
  if (f != nullptr) {
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  return bytes;
}

/// Offset where a WAL file's record chain stops verifying: its logical
/// end. The file past it is zero padding (or a torn tail).
inline long WalLogicalEnd(const std::string& wal_path) {
  std::vector<uint8_t> bytes = ReadWholeFile(wal_path);
  const uint8_t* p = bytes.data();
  const uint8_t* limit = p + bytes.size();
  WalRecord record;
  while (p < limit) {
    const uint8_t* next = p;
    if (!DecodeWalRecord(&next, limit, &record).ok()) break;
    p = next;
  }
  return static_cast<long>(p - bytes.data());
}

/// A unique temp file path, removed on destruction (plus its WAL).
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = ::testing::TempDir() + "laxml_" + tag + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".db";
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace testing
}  // namespace laxml

#endif  // LAXML_TESTS_TEST_UTIL_H_
