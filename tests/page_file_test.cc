// Page file tests: allocation / free-chain reuse, meta area
// persistence, reopen, and header validation — over a MemFile and a
// PosixFile, plus open errors surfaced through a FaultyFile.

#include "storage/page_file.h"

#include <gtest/gtest.h>

#include <cstring>

#include "storage/faulty_file.h"
#include "test_util.h"

namespace laxml {
namespace {

std::unique_ptr<PageFile> InMemory(uint32_t page_size) {
  auto file = PageFile::Open(std::make_unique<MemFile>(), page_size);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  return std::move(file).value();
}

Result<std::unique_ptr<PageFile>> OpenPosix(const std::string& path,
                                            uint32_t page_size) {
  LAXML_ASSIGN_OR_RETURN(auto file, PosixFile::Open(path));
  return PageFile::Open(std::move(file), page_size);
}

void FillPage(std::vector<uint8_t>* buf, uint32_t page_size, PageId id,
              uint8_t fill) {
  buf->assign(page_size, fill);
  PageView view(buf->data(), page_size);
  view.set_id(id);
  view.set_type(PageType::kSlotted);
  view.SealChecksum();
}

TEST(InMemoryPageFileTest, AllocateWriteReadBack) {
  auto owned = InMemory(512);
  PageFile& file = *owned;
  ASSERT_OK_AND_ASSIGN(PageId a, file.AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId b, file.AllocatePage());
  EXPECT_NE(a, b);
  std::vector<uint8_t> buf;
  FillPage(&buf, 512, a, 0xAA);
  ASSERT_LAXML_OK(file.WritePage(a, buf.data()));
  std::vector<uint8_t> readback(512);
  ASSERT_LAXML_OK(file.ReadPage(a, readback.data()));
  EXPECT_EQ(std::memcmp(buf.data(), readback.data(), 512), 0);
}

TEST(InMemoryPageFileTest, FreedPagesAreReused) {
  auto owned = InMemory(512);
  PageFile& file = *owned;
  ASSERT_OK_AND_ASSIGN(PageId a, file.AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId b, file.AllocatePage());
  (void)b;
  uint32_t count = file.page_count();
  ASSERT_LAXML_OK(file.FreePage(a));
  EXPECT_EQ(file.free_page_count(), 1u);
  ASSERT_OK_AND_ASSIGN(PageId c, file.AllocatePage());
  EXPECT_EQ(c, a);
  EXPECT_EQ(file.page_count(), count);
  EXPECT_EQ(file.free_page_count(), 0u);
}

TEST(InMemoryPageFileTest, OutOfRangeAccessFails) {
  auto owned = InMemory(512);
  PageFile& file = *owned;
  std::vector<uint8_t> buf(512);
  EXPECT_TRUE(file.ReadPage(99, buf.data()).IsIOError());
  EXPECT_TRUE(file.WritePage(99, buf.data()).IsIOError());
  EXPECT_TRUE(file.FreePage(0).IsInvalidArgument());
}

TEST(InMemoryPageFileTest, MetaRoundTrip) {
  auto owned = InMemory(512);
  PageFile& file = *owned;
  std::string meta = "bootstrap state";
  ASSERT_LAXML_OK(file.WriteMeta(Slice(meta)));
  ASSERT_OK_AND_ASSIGN(auto read, file.ReadMeta());
  EXPECT_EQ(std::string(read.begin(), read.end()), meta);
}

TEST(PosixPageFileTest, CreateWriteReopen) {
  testing::TempFile tmp("pagefile");
  {
    ASSERT_OK_AND_ASSIGN(auto file, OpenPosix(tmp.path(), 1024));
    ASSERT_OK_AND_ASSIGN(PageId a, file->AllocatePage());
    std::vector<uint8_t> buf;
    FillPage(&buf, 1024, a, 0x5C);
    ASSERT_LAXML_OK(file->WritePage(a, buf.data()));
    ASSERT_LAXML_OK(file->WriteMeta(Slice(std::string("hello"))));
    ASSERT_LAXML_OK(file->Sync());
  }
  {
    // Reopen with a different requested page size: the stored one wins.
    ASSERT_OK_AND_ASSIGN(auto file, OpenPosix(tmp.path(), 4096));
    EXPECT_EQ(file->page_size(), 1024u);
    EXPECT_EQ(file->page_count(), 2u);
    std::vector<uint8_t> buf(1024);
    ASSERT_LAXML_OK(file->ReadPage(1, buf.data()));
    PageView view(buf.data(), 1024);
    EXPECT_TRUE(view.VerifyChecksum(1));
    ASSERT_OK_AND_ASSIGN(auto meta, file->ReadMeta());
    EXPECT_EQ(std::string(meta.begin(), meta.end()), "hello");
  }
}

TEST(PosixPageFileTest, FreeChainSurvivesReopen) {
  testing::TempFile tmp("freechain");
  PageId freed;
  {
    ASSERT_OK_AND_ASSIGN(auto file, OpenPosix(tmp.path(), 512));
    ASSERT_OK_AND_ASSIGN(PageId a, file->AllocatePage());
    ASSERT_OK_AND_ASSIGN(PageId b, file->AllocatePage());
    (void)b;
    ASSERT_LAXML_OK(file->FreePage(a));
    freed = a;
    ASSERT_LAXML_OK(file->Sync());
  }
  {
    ASSERT_OK_AND_ASSIGN(auto file, OpenPosix(tmp.path(), 512));
    EXPECT_EQ(file->free_page_count(), 1u);
    ASSERT_OK_AND_ASSIGN(PageId again, file->AllocatePage());
    EXPECT_EQ(again, freed);
  }
}

TEST(PosixPageFileTest, RejectsBadPageSizes) {
  testing::TempFile tmp("badsize");
  EXPECT_TRUE(
      OpenPosix(tmp.path(), 100).status().IsInvalidArgument());
  EXPECT_TRUE(
      OpenPosix(tmp.path(), 1000).status().IsInvalidArgument());
}

TEST(PosixPageFileTest, DetectsForeignFile) {
  testing::TempFile tmp("foreign");
  {
    FILE* f = fopen(tmp.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::string junk(4096, 'j');
    fwrite(junk.data(), 1, junk.size(), f);
    fclose(f);
  }
  EXPECT_TRUE(
      OpenPosix(tmp.path(), 4096).status().IsCorruption());
}

// An I/O error reading the header is an I/O error, not a corrupt file:
// laxml_fsck exits 2 on the first and 1 on the second.
TEST(PosixPageFileTest, HeaderReadErrorIsIOError) {
  testing::TempFile tmp("hdr_ioerror");
  { ASSERT_OK_AND_ASSIGN(auto file, OpenPosix(tmp.path(), 512)); }
  ASSERT_OK_AND_ASSIGN(auto base, PosixFile::Open(tmp.path()));
  auto faulty = std::make_unique<FaultyFile>(std::move(base));
  faulty->FailNth(FaultOp::kRead, 1, Status::IOError("injected EIO"));
  Status st = PageFile::Open(std::move(faulty), 512).status();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(PosixPageFileTest, FileShorterThanAHeaderIsCorruption) {
  testing::TempFile tmp("hdr_short");
  {
    FILE* f = fopen(tmp.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    fwrite("LAXM", 1, 4, f);
    fclose(f);
  }
  Status st = OpenPosix(tmp.path(), 512).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(PageViewTest, ChecksumDetectsBitFlips) {
  std::vector<uint8_t> buf(512, 0);
  PageView view(buf.data(), 512);
  view.Format(7, PageType::kBTreeLeaf);
  buf[100] = 42;
  view.SealChecksum();
  EXPECT_TRUE(view.VerifyChecksum(7));
  buf[100] ^= 1;
  EXPECT_FALSE(view.VerifyChecksum(7));
  buf[100] ^= 1;
  EXPECT_TRUE(view.VerifyChecksum(7));
  // Misdirected write: right checksum, wrong page id.
  EXPECT_FALSE(view.VerifyChecksum(8));

  // The CRC covers bytes 4..page_size-1: a flip at any of them fails.
  // 4092 = 511 * 8 + 4, so flips land in both the 8-byte lanes and the
  // byte tail of the CRC loop.
  for (size_t page_size : {512u, 4096u}) {
    std::vector<uint8_t> page(page_size, 0);
    PageView pv(page.data(), page_size);
    pv.Format(7, PageType::kBTreeLeaf);
    page[page_size / 2] = 42;
    pv.SealChecksum();
    ASSERT_TRUE(pv.VerifyChecksum(7));
    for (size_t off = 4; off < page_size; ++off) {
      page[off] ^= 0x10;
      EXPECT_FALSE(pv.VerifyChecksum(7))
          << "page_size=" << page_size << " off=" << off;
      page[off] ^= 0x10;
    }
    EXPECT_TRUE(pv.VerifyChecksum(7));
  }
}

TEST(PageViewTest, AllZeroPageIsAcceptedAsEmpty) {
  std::vector<uint8_t> buf(512, 0);
  PageView view(buf.data(), 512);
  EXPECT_TRUE(view.VerifyChecksum(3));
}

}  // namespace
}  // namespace laxml
