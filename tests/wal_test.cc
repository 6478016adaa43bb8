// WAL unit tests: record framing, torn-tail handling, truncation, and
// the pre-zeroed file whose size stays fixed on the commit path.

#include "wal/wal.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>

#include "test_util.h"
#include "xml/token_codec.h"

namespace laxml {
namespace {

using testing::FileSize;
using testing::MustFragment;
using testing::ReadWholeFile;
using testing::TempFile;
using testing::WalLogicalEnd;

constexpr long kFirstFileSize = 64 << 10;

bool AllZeroFrom(const std::vector<uint8_t>& bytes, long offset) {
  return std::all_of(bytes.begin() + offset, bytes.end(),
                     [](uint8_t b) { return b == 0; });
}

/// Writes `n` junk bytes at `offset`: a record torn mid-write.
void WriteJunk(const std::string& path, long offset, size_t n) {
  int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> junk(n);
  for (size_t i = 0; i < n; ++i) junk[i] = static_cast<uint8_t>(i + 1);
  ASSERT_EQ(::pwrite(fd, junk.data(), n, offset), static_cast<ssize_t>(n));
  ::close(fd);
}

WalRecord MakeRecord(WalOp op, NodeId target, const std::string& xml) {
  WalRecord rec;
  rec.op = op;
  rec.target = target;
  if (!xml.empty()) {
    rec.payload = EncodeTokens(MustFragment(xml));
  }
  return rec;
}

TEST(WalFormatTest, RecordRoundTrips) {
  WalRecord rec = MakeRecord(WalOp::kInsertIntoLast, 60, "<child/>");
  std::vector<uint8_t> framed;
  EncodeWalRecord(rec, &framed);
  const uint8_t* p = framed.data();
  WalRecord back;
  ASSERT_LAXML_OK(DecodeWalRecord(&p, framed.data() + framed.size(), &back));
  EXPECT_EQ(back.op, rec.op);
  EXPECT_EQ(back.target, rec.target);
  EXPECT_EQ(back.payload, rec.payload);
  EXPECT_EQ(p, framed.data() + framed.size());
}

TEST(WalFormatTest, EncodesGoldenBytes) {
  WalRecord rec;
  rec.op = WalOp::kInsertIntoLast;
  rec.target = 0x0102030405060708ull;
  rec.payload = {0xAA, 0xBB, 0xCC};
  // [masked crc32c][body_len 16][op][target LE][payload_len LE][payload]
  const std::vector<uint8_t> golden = {
      0x23, 0x09, 0xf5, 0x43, 0x10, 0x00, 0x00, 0x00, 0x03, 0x08, 0x07, 0x06,
      0x05, 0x04, 0x03, 0x02, 0x01, 0x03, 0x00, 0x00, 0x00, 0xaa, 0xbb, 0xcc};
  std::vector<uint8_t> framed;
  EncodeWalRecord(rec, &framed);
  EXPECT_EQ(framed, golden);
  // Encoding appends in place: a second record frames the same bytes
  // behind the first.
  EncodeWalRecord(rec, &framed);
  std::vector<uint8_t> twice = golden;
  twice.insert(twice.end(), golden.begin(), golden.end());
  EXPECT_EQ(framed, twice);
}

TEST(WalFormatTest, TornTailIsNotFoundNotCorruption) {
  WalRecord rec = MakeRecord(WalOp::kDeleteNode, 7, "");
  std::vector<uint8_t> framed;
  EncodeWalRecord(rec, &framed);
  for (size_t keep = 0; keep < framed.size(); ++keep) {
    const uint8_t* p = framed.data();
    WalRecord back;
    Status st = DecodeWalRecord(&p, framed.data() + keep, &back);
    EXPECT_TRUE(st.IsNotFound()) << "keep=" << keep << " " << st.ToString();
  }
}

TEST(WalFormatTest, FlippedBitIsDetected) {
  WalRecord rec = MakeRecord(WalOp::kReplaceNode, 3, "<n/>");
  std::vector<uint8_t> framed;
  EncodeWalRecord(rec, &framed);
  framed[10] ^= 0x40;
  const uint8_t* p = framed.data();
  WalRecord back;
  Status st = DecodeWalRecord(&p, framed.data() + framed.size(), &back);
  EXPECT_FALSE(st.ok());
}

TEST(WalTest, AppendReadTruncate) {
  TempFile tmp("wal");
  std::string wal_path = tmp.path() + ".wal";
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path));
  ASSERT_LAXML_OK(
      wal->Append(MakeRecord(WalOp::kInsertTopLevel, 0, "<a/>"), false));
  ASSERT_LAXML_OK(
      wal->Append(MakeRecord(WalOp::kInsertIntoLast, 1, "<b/>"), true));
  ASSERT_LAXML_OK(wal->Append(MakeRecord(WalOp::kDeleteNode, 2, ""), false));
  ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].op, WalOp::kInsertTopLevel);
  EXPECT_EQ(records[1].target, 1u);
  EXPECT_TRUE(records[2].payload.empty());
  EXPECT_EQ(wal->stats().records_appended, 3u);
  EXPECT_EQ(wal->stats().syncs, 1u);

  ASSERT_LAXML_OK(wal->Truncate());
  ASSERT_OK_AND_ASSIGN(records, wal->ReadAll());
  EXPECT_TRUE(records.empty());
  ASSERT_OK_AND_ASSIGN(uint64_t size, wal->SizeBytes());
  EXPECT_EQ(size, 0u);
}

TEST(WalTest, SurvivesReopenAndIgnoresTornTail) {
  TempFile tmp("waltorn");
  std::string wal_path = tmp.path() + ".wal";
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path));
    ASSERT_LAXML_OK(
        wal->Append(MakeRecord(WalOp::kInsertTopLevel, 0, "<a/>"), true));
    ASSERT_LAXML_OK(
        wal->Append(MakeRecord(WalOp::kInsertIntoLast, 1, "<b/>"), true));
  }
  // Simulate a torn final write: half a record's worth of bytes at the
  // logical end, where the next record would have gone.
  WriteJunk(wal_path, WalLogicalEnd(wal_path), 9);
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path));
  ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
  ASSERT_EQ(records.size(), 2u);  // torn tail dropped
  EXPECT_EQ(records[1].op, WalOp::kInsertIntoLast);
}

TEST(WalTest, FileSizeStaysFixedAcrossCommitsAndResets) {
  TempFile tmp("walfixed");
  std::string wal_path = tmp.path() + ".wal";
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path));
  const WalRecord rec = MakeRecord(WalOp::kInsertIntoLast, 1, "<b>x</b>");
  ASSERT_LAXML_OK(wal->Append(rec, true));
  EXPECT_EQ(FileSize(wal_path), kFirstFileSize);  // grown once, with zeros
  for (int i = 0; i < 50; ++i) ASSERT_LAXML_OK(wal->Append(rec, true));
  EXPECT_EQ(FileSize(wal_path), kFirstFileSize);
  ASSERT_OK_AND_ASSIGN(uint64_t used, wal->SizeBytes());
  EXPECT_EQ(WalLogicalEnd(wal_path), static_cast<long>(used));
  EXPECT_TRUE(AllZeroFrom(ReadWholeFile(wal_path), static_cast<long>(used)));

  // The checkpoint reset zeroes the used prefix; the file keeps its size.
  ASSERT_LAXML_OK(wal->Truncate());
  EXPECT_EQ(FileSize(wal_path), kFirstFileSize);
  EXPECT_TRUE(AllZeroFrom(ReadWholeFile(wal_path), 0));
  ASSERT_OK_AND_ASSIGN(used, wal->SizeBytes());
  EXPECT_EQ(used, 0u);
  // The counters see commits and resets, not the file's own syncs.
  EXPECT_EQ(wal->stats().truncations, 1u);
  EXPECT_EQ(wal->stats().syncs, 51u);

  // The next epoch starts at offset 0; a clean close cuts the padding.
  ASSERT_LAXML_OK(wal->Append(rec, true));
  ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
  EXPECT_EQ(records.size(), 1u);
  ASSERT_LAXML_OK(wal->ShrinkToFit());
  ASSERT_OK_AND_ASSIGN(used, wal->SizeBytes());
  EXPECT_EQ(FileSize(wal_path), static_cast<long>(used));
  EXPECT_EQ(WalLogicalEnd(wal_path), static_cast<long>(used));
}

TEST(WalTest, GrowthDoublesTheFileWithZeros) {
  TempFile tmp("walgrow");
  std::string wal_path = tmp.path() + ".wal";
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path));
  const WalRecord rec =
      MakeRecord(WalOp::kInsertIntoLast, 1, "<t>" + std::string(1000, 'x') +
                                                "</t>");
  for (int i = 0; i < 80; ++i) ASSERT_LAXML_OK(wal->Append(rec, false));
  EXPECT_EQ(FileSize(wal_path), 2 * kFirstFileSize);
  ASSERT_OK_AND_ASSIGN(uint64_t used, wal->SizeBytes());
  EXPECT_GT(used, static_cast<uint64_t>(kFirstFileSize));
  EXPECT_TRUE(AllZeroFrom(ReadWholeFile(wal_path), static_cast<long>(used)));
  ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
  EXPECT_EQ(records.size(), 80u);

  // The checkpoint reset gives the growth back: the next epoch starts
  // from the first size again, all zero.
  ASSERT_LAXML_OK(wal->Truncate());
  EXPECT_EQ(FileSize(wal_path), kFirstFileSize);
  EXPECT_TRUE(AllZeroFrom(ReadWholeFile(wal_path), 0));
  ASSERT_LAXML_OK(wal->Append(rec, true));
  ASSERT_OK_AND_ASSIGN(records, wal->ReadAll());
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(FileSize(wal_path), kFirstFileSize);
}

TEST(WalTest, AppendToReopenedLogWaitsForTrim) {
  TempFile tmp("walreopen");
  std::string wal_path = tmp.path() + ".wal";
  const WalRecord rec = MakeRecord(WalOp::kInsertIntoLast, 1, "<b/>");
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path));
    for (int i = 0; i < 3; ++i) ASSERT_LAXML_OK(wal->Append(rec, true));
  }  // no clean close: the file keeps its zero padding, as after a crash
  const std::vector<uint8_t> before = ReadWholeFile(wal_path);
  ASSERT_EQ(static_cast<long>(before.size()), kFirstFileSize);

  // Appending at the physical end would land behind the padding, where
  // replay never reaches: the append is refused and writes nothing.
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path));
  Status st = wal->Append(MakeRecord(WalOp::kDeleteNode, 2, ""), true);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(ReadWholeFile(wal_path), before);

  // Once recovery has found the end, the record lands behind the last
  // one and replays.
  ASSERT_LAXML_OK(wal->TrimTornTail());
  ASSERT_LAXML_OK(wal->Append(MakeRecord(WalOp::kDeleteNode, 2, ""), true));
  wal.reset();
  ASSERT_OK_AND_ASSIGN(wal, Wal::Open(wal_path));
  ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[3].op, WalOp::kDeleteNode);
}

TEST(WalTest, TrimTornTailZeroesTheTailInPlace) {
  TempFile tmp("waltrim");
  std::string wal_path = tmp.path() + ".wal";
  long end = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path));
    for (int i = 0; i < 3; ++i) {
      ASSERT_LAXML_OK(
          wal->Append(MakeRecord(WalOp::kInsertIntoLast, 1, "<b/>"), true));
    }
    end = WalLogicalEnd(wal_path);
  }
  WriteJunk(wal_path, end, 9);
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(wal_path));
  // The trim returns the three records it kept, and only those.
  ASSERT_OK_AND_ASSIGN(auto kept, wal->TrimTornTail());
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[2].op, WalOp::kInsertIntoLast);
  // The junk is zero again and the file keeps its padded size.
  EXPECT_EQ(FileSize(wal_path), kFirstFileSize);
  EXPECT_TRUE(AllZeroFrom(ReadWholeFile(wal_path), end));
  ASSERT_OK_AND_ASSIGN(uint64_t used, wal->SizeBytes());
  EXPECT_EQ(used, static_cast<uint64_t>(end));
  // The next record lands where the torn one began.
  ASSERT_LAXML_OK(
      wal->Append(MakeRecord(WalOp::kDeleteNode, 2, ""), true));
  ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[3].op, WalOp::kDeleteNode);
}

}  // namespace
}  // namespace laxml
