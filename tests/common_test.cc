// Unit tests for the common module: Status/Result, fixed-int and varint
// coding, CRC32-C, and the deterministic PRNG.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc32c.h"
#include "common/huge_pages.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/varint.h"

namespace laxml {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status st = Status::NotFound("key 42");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.ToString(), "NotFound: key 42");
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
}

TEST(ResultTest, HoldsValueOrError) {
  Result<int> ok_result(7);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 7);
  EXPECT_EQ(ok_result.ValueOr(9), 7);

  Result<int> err_result(Status::NotFound("nope"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_TRUE(err_result.status().IsNotFound());
  EXPECT_EQ(err_result.ValueOr(9), 9);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Status UseAssignOrReturn(int v, int* out) {
  LAXML_ASSIGN_OR_RETURN(int half, Half(v));
  *out = half;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  ASSERT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_TRUE(UseAssignOrReturn(7, &out).IsInvalidArgument());
}

TEST(FixedIntTest, RoundTripAllWidths) {
  std::vector<uint8_t> buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  const uint8_t* p = buf.data();
  EXPECT_EQ(DecodeFixed16(p), 0xBEEF);
  EXPECT_EQ(DecodeFixed32(p + 2), 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed64(p + 6), 0x0123456789ABCDEFull);
}

TEST(FixedIntTest, LittleEndianLayout) {
  uint8_t buf[4];
  EncodeFixed32(buf, 0x01020304u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(SliceTest, ComparisonAndViews) {
  std::string s = "hello";
  Slice a(s);
  Slice b("hello", 5);
  Slice c("hellx", 5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_EQ(a.AsStringView(), "hello");
  a.RemovePrefix(2);
  EXPECT_EQ(a.ToString(), "llo");
  EXPECT_TRUE(Slice().empty());
}

class VarintRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTripTest, RoundTrips) {
  uint64_t v = GetParam();
  std::vector<uint8_t> buf;
  PutVarint64(&buf, v);
  EXPECT_EQ(buf.size(), VarintLength(v));
  uint64_t decoded = 0;
  const uint8_t* end =
      GetVarint64(buf.data(), buf.data() + buf.size(), &decoded);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(decoded, v);
  EXPECT_EQ(end, buf.data() + buf.size());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTripTest,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                      (1ull << 32) - 1, 1ull << 32, UINT64_MAX));

TEST(VarintTest, TruncatedInputReturnsNull) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 1ull << 40);
  uint64_t v;
  EXPECT_EQ(GetVarint64(buf.data(), buf.data() + buf.size() - 1, &v),
            nullptr);
  EXPECT_EQ(GetVarint64(buf.data(), buf.data(), &v), nullptr);
}

TEST(VarintTest, NonCanonicalEncodingsRejected) {
  // 31 encoded redundantly as 0x9F 0x00 (over-long form): the decoder
  // insists on canonical encodings for byte-exact round trips.
  const uint8_t overlong[] = {0x9F, 0x00};
  uint64_t v;
  EXPECT_EQ(GetVarint64(overlong, overlong + 2, &v), nullptr);
  const uint8_t padded_zero[] = {0x80, 0x00};
  EXPECT_EQ(GetVarint64(padded_zero, padded_zero + 2, &v), nullptr);
  // Plain zero is fine.
  const uint8_t zero[] = {0x00};
  ASSERT_NE(GetVarint64(zero, zero + 1, &v), nullptr);
  EXPECT_EQ(v, 0u);
}

TEST(VarintTest, Varint32RejectsOverflow) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 1ull << 33);
  uint32_t v;
  EXPECT_EQ(GetVarint32(buf.data(), buf.data() + buf.size(), &v), nullptr);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8a9136aau);
  std::vector<uint8_t> ones(32, 0xff);
  EXPECT_EQ(crc32c::Value(ones.data(), ones.size()), 0x62a8ab43u);
}

TEST(Crc32cTest, CheckValue) {
  // The catalogued CRC-32C check value.
  const std::string check = "123456789";
  const uint8_t* p = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(crc32c::Value(p, check.size()), 0xE3069283u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  uint32_t one_shot = crc32c::Value(p, data.size());
  uint32_t in_pieces = crc32c::Extend(crc32c::Value(p, 10), p + 10,
                                      data.size() - 10);
  EXPECT_EQ(one_shot, in_pieces);
}

TEST(Crc32cTest, DispatchedPathMatchesTableLoop) {
  // Extend() may take the SSE4.2 path; ExtendPortable() is the reference.
  // Lengths cover the 8-byte lanes and every 0-7 byte tail, 508 and 4092
  // are the checksummed span of a 512- and a 4096-byte page, and each
  // runs from every start offset 0-7 so the word loads are misaligned.
  std::vector<uint8_t> buf(65532 + 8);
  Random rng(17);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next64());
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (size_t n : {508u, 4092u, 65532u}) lengths.push_back(n);
  for (size_t n : lengths) {
    for (size_t off = 0; off < 8; ++off) {
      const uint8_t* p = buf.data() + off;
      ASSERT_EQ(crc32c::Extend(0, p, n), crc32c::ExtendPortable(0, p, n))
          << "n=" << n << " off=" << off;
      ASSERT_EQ(crc32c::Extend(0x9e3779b9u, p, n),
                crc32c::ExtendPortable(0x9e3779b9u, p, n))
          << "seeded n=" << n << " off=" << off;
    }
  }
  // Chained at every split point of a 64-byte buffer.
  const uint8_t* p = buf.data();
  const uint32_t whole = crc32c::ExtendPortable(0, p, 64);
  for (size_t split = 0; split <= 64; ++split) {
    EXPECT_EQ(crc32c::Extend(crc32c::Extend(0, p, split), p + split,
                             64 - split),
              whole)
        << "split=" << split;
  }
}

TEST(Crc32cTest, MaskRoundTrips) {
  uint32_t crc = 0xdeadbeef;
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
  bool diverged = false;
  Random a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next64() != c.Next64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    uint64_t v = rng.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, NamesAreXmlSafe) {
  Random rng(11);
  for (int i = 0; i < 50; ++i) {
    std::string name = rng.NextName(8);
    ASSERT_EQ(name.size(), 8u);
    for (char ch : name) {
      EXPECT_TRUE(ch >= 'a' && ch <= 'z');
    }
  }
}

// Huge-page advice rounds inward to whole blocks and never changes the
// memory it advises.
TEST(HugePagesTest, EmptyRangeHasNoBlocks) {
  char byte = 0;
  EXPECT_EQ(HugePageBlocks(&byte, 0).bytes, 0u);
  EXPECT_EQ(HugePageBlocks(nullptr, 0).bytes, 0u);
  AdviseHugePages(&byte, 0);
  AdviseHugePages(nullptr, 0);
}

TEST(HugePagesTest, RangesUnderABlockHaveNoBlocks) {
  std::vector<char> buf(3 * kHugePageBytes);
  const uintptr_t raw = reinterpret_cast<uintptr_t>(buf.data());
  char* base = buf.data() + ((kHugePageBytes - raw % kHugePageBytes) %
                             kHugePageBytes);
  EXPECT_EQ(HugePageBlocks(base, kHugePageBytes - 1).bytes, 0u);
  EXPECT_EQ(HugePageBlocks(base + 1, kHugePageBytes).bytes, 0u);
  EXPECT_EQ(HugePageBlocks(base + kHugePageBytes / 2, kHugePageBytes).bytes,
            0u);
  const HugePageSpan whole = HugePageBlocks(base, kHugePageBytes);
  EXPECT_EQ(whole.begin, base);
  EXPECT_EQ(whole.bytes, kHugePageBytes);
}

TEST(HugePagesTest, UnalignedRangeAdvisesOnlyItsWholeBlocks) {
  std::vector<char> buf(5 * kHugePageBytes);
  const uintptr_t raw = reinterpret_cast<uintptr_t>(buf.data());
  char* base = buf.data() + ((kHugePageBytes - raw % kHugePageBytes) %
                             kHugePageBytes);
  char* data = base + 1;
  const size_t bytes = 3 * kHugePageBytes + 5;
  const HugePageSpan span = HugePageBlocks(data, bytes);
  EXPECT_EQ(span.begin, base + kHugePageBytes);
  EXPECT_EQ(span.bytes, 2 * kHugePageBytes);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<char>(i * 31);
  AdviseHugePages(data, bytes);
  for (size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], static_cast<char>(i * 31)) << "byte " << i;
  }
}

}  // namespace
}  // namespace laxml
