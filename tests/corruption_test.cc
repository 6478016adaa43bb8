// Corruption-seeding tests for laxml_fsck (src/audit/fsck.h): build a
// real store file, flip bits in a specific structure, and assert the
// checker reports the right layer at the right page/offset.
//
// Two corruption styles per structure:
//   * raw bit-flip — the page checksum catches it (kPage issue);
//   * flip + CRC reseal — the checksum is valid again, so only the
//     *structural* layer checks can catch it. This is what proves the
//     auditor validates invariants, not just checksums.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "audit/fsck.h"
#include "common/slice.h"
#include "storage/page.h"
#include "store/range.h"
#include "store/store.h"
#include "test_util.h"

namespace laxml {
namespace {

using ::laxml::testing::MustFragment;
using ::laxml::testing::ReadWholeFile;
using ::laxml::testing::TempFile;
using ::laxml::testing::WalLogicalEnd;

void WriteWholeFile(const std::string& path, const std::vector<uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  std::fclose(f);
}

// Page 0 payload: magic u32 | version u32 | page_size u32 | ...
uint32_t PageSizeOf(const std::vector<uint8_t>& file) {
  return DecodeFixed32(file.data() + kPageHeaderSize + 8);
}

// First page (after the meta page) whose header type byte matches.
PageId FindPageOfType(const std::vector<uint8_t>& file, PageType type) {
  uint32_t page_size = PageSizeOf(file);
  for (PageId id = 1; id * page_size < file.size(); ++id) {
    if (file[id * page_size + kPageTypeOffset] ==
        static_cast<uint8_t>(type)) {
      return id;
    }
  }
  return kInvalidPageId;
}

// Recomputes the page CRC after a deliberate mutation, so the checksum
// verifies and only structural checks can notice.
void Reseal(std::vector<uint8_t>* file, PageId page) {
  uint32_t page_size = PageSizeOf(*file);
  PageView view(file->data() + page * page_size, page_size);
  view.SealChecksum();
}

// Builds a closed, checkpointed store file with a few ranges (so the
// heap, the range-meta B+-tree, and the range chain all have content).
void BuildStore(const std::string& path) {
  StoreOptions options;
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(path, options));
  ASSERT_OK_AND_ASSIGN(NodeId first,
                       store->LoadXml("<root><a>alpha</a><b>beta</b></root>"));
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK_AND_ASSIGN(
        NodeId id, store->InsertIntoLast(
                       first, MustFragment("<entry n='" + std::to_string(i) +
                                           "'>payload text</entry>")));
    (void)id;
  }
  ASSERT_LAXML_OK(store->Sync());
}

bool HasIssueAt(const AuditReport& report, AuditLayer layer, PageId page) {
  for (const AuditIssue& issue : report.issues) {
    if (issue.layer == layer && issue.page == page) return true;
  }
  return false;
}

bool HasIssue(const AuditReport& report, AuditLayer layer) {
  for (const AuditIssue& issue : report.issues) {
    if (issue.layer == layer) return true;
  }
  return false;
}

TEST(CorruptionTest, CleanStoreVerifiesClean) {
  TempFile file("fsck_clean");
  BuildStore(file.path());
  FsckOutcome outcome = RunFsck(file.path());
  EXPECT_EQ(outcome.exit_code, 0) << outcome.report.ToString();
  EXPECT_TRUE(outcome.swept_pages);
  EXPECT_GT(outcome.report.pages_swept, 0u);
}

TEST(CorruptionTest, SlottedPageCorruptionLocalized) {
  TempFile file("fsck_slotted");
  BuildStore(file.path());
  auto bytes = ReadWholeFile(file.path());
  uint32_t page_size = PageSizeOf(bytes);
  PageId victim = FindPageOfType(bytes, PageType::kSlotted);
  ASSERT_NE(victim, kInvalidPageId);
  // Slotted payload offset 10 = free_start; point it below the header.
  // With the CRC resealed only the slotted-page structural checks
  // (bounds + the heap accounting identity) can catch this.
  size_t off = victim * page_size + kPageHeaderSize + 10;
  bytes[off] = 5;
  bytes[off + 1] = 0;
  Reseal(&bytes, victim);
  WriteWholeFile(file.path(), bytes);

  FsckOutcome outcome = RunFsck(file.path());
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_TRUE(HasIssueAt(outcome.report, AuditLayer::kSlottedPage, victim))
      << outcome.report.ToString();
}

TEST(CorruptionTest, BTreeNodeCorruptionLocalized) {
  TempFile file("fsck_btree");
  BuildStore(file.path());
  auto bytes = ReadWholeFile(file.path());
  uint32_t page_size = PageSizeOf(bytes);
  // The lazy store's one B+-tree: this is a range-meta leaf.
  PageId victim = FindPageOfType(bytes, PageType::kBTreeLeaf);
  ASSERT_NE(victim, kInvalidPageId);
  // Overwrite the leaf's first key (payload offset 12) with u64 max:
  // with more than one key in the node, ascending key order breaks.
  size_t off = victim * page_size + kPageHeaderSize + 12;
  for (int i = 0; i < 8; ++i) bytes[off + i] = 0xFF;
  Reseal(&bytes, victim);
  WriteWholeFile(file.path(), bytes);

  FsckOutcome outcome = RunFsck(file.path());
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_TRUE(HasIssueAt(outcome.report, AuditLayer::kBTree, victim))
      << outcome.report.ToString();
}

// One RangeMeta's `next` rewritten in the file to point back into the
// chain, its page resealed: every walk over the chain would loop. Each
// one stops at Corruption once it passes more ranges than the store
// holds, so reads, the structural warm-up and fsck report the cycle
// and nothing exhausts memory or throws.
TEST(CorruptionTest, RangeChainCycleIsCorruptionNotAHang) {
  TempFile file("fsck_cycle");
  BuildStore(file.path());
  StoreOptions read_only;
  read_only.pager.read_only = true;
  std::vector<RangeMeta> chain;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), read_only));
    ASSERT_LAXML_OK(store->range_manager().ForEachRange(
        [&](const RangeMeta& meta) {
          chain.push_back(meta);
          return true;
        }));
  }
  ASSERT_GE(chain.size(), 3u);
  auto bytes = ReadWholeFile(file.path());
  const uint32_t page_size = PageSizeOf(bytes);
  uint8_t value[kRangeMetaValueSize];
  EncodeRangeMeta(chain.back(), value);
  auto at = std::search(bytes.begin(), bytes.end(), value,
                        value + kRangeMetaValueSize);
  ASSERT_NE(at, bytes.end()) << "the last range's meta value";
  const size_t off = static_cast<size_t>(at - bytes.begin());
  EncodeFixed64(bytes.data() + off + 8, chain[1].id);  // next
  Reseal(&bytes, static_cast<PageId>(off / page_size));
  WriteWholeFile(file.path(), bytes);

  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), read_only));
  EXPECT_NO_THROW({
    auto all = store->Read();
    EXPECT_TRUE(all.status().IsCorruption()) << all.status().ToString();
    Status warm = store->WarmStructuralIndex();
    EXPECT_TRUE(warm.IsCorruption()) << warm.ToString();
    EXPECT_FALSE(store->CheckIntegrity().ok());
  });
  store.reset();
  EXPECT_NO_THROW({
    FsckOutcome outcome = RunFsck(file.path());
    EXPECT_EQ(outcome.exit_code, 1) << outcome.error;
    EXPECT_TRUE(HasIssue(outcome.report, AuditLayer::kRangeChain))
        << outcome.report.ToString();
  });
}

TEST(CorruptionTest, RawBitFlipCaughtByChecksum) {
  TempFile file("fsck_bitflip");
  BuildStore(file.path());
  auto bytes = ReadWholeFile(file.path());
  uint32_t page_size = PageSizeOf(bytes);
  PageId victim = FindPageOfType(bytes, PageType::kSlotted);
  ASSERT_NE(victim, kInvalidPageId);
  // One flipped bit mid-payload, CRC left stale.
  bytes[victim * page_size + kPageHeaderSize + 100] ^= 0x40;
  WriteWholeFile(file.path(), bytes);

  FsckOutcome outcome = RunFsck(file.path());
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_TRUE(HasIssueAt(outcome.report, AuditLayer::kPage, victim))
      << outcome.report.ToString();
}

TEST(CorruptionTest, WalRecordCorruptionTrimmedAsTornTail) {
  TempFile file("fsck_wal");
  StoreOptions options;
  options.enable_wal = true;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), options));
    ASSERT_OK_AND_ASSIGN(NodeId first, store->LoadXml("<root/>"));
    for (int i = 0; i < 5; ++i) {
      ASSERT_OK_AND_ASSIGN(
          NodeId id, store->InsertIntoLast(first, MustFragment("<n>x</n>")));
      (void)id;
    }
    // Crash without checkpointing: the WAL keeps every record.
    store->TestOnlyCrash();
  }
  std::string wal_path = file.path() + ".wal";
  FsckOptions fo;
  fo.replay_wal = false;  // audit the raw log instead of replaying it
  const uint64_t records_before =
      RunFsck(file.path(), fo).report.wal_records;
  // The file is zero padding past its last record, so the middle of the
  // log is the middle of its records, not of the file.
  const long end = WalLogicalEnd(wal_path);
  ASSERT_GT(end, 32);
  auto wal = ReadWholeFile(wal_path);
  // Flip a byte in the middle of the log: the record covering it stops
  // verifying and everything from its start onward is untrusted — which
  // is indistinguishable from a tail torn by a crash mid-append. fsck
  // mirrors recovery semantics: the unverifiable suffix is trimmed, not
  // flagged as corruption, and reported via the torn-tail counter.
  wal[end / 2] ^= 0x01;
  WriteWholeFile(wal_path, wal);

  FsckOutcome outcome = RunFsck(file.path(), fo);
  EXPECT_EQ(outcome.exit_code, 0) << outcome.report.ToString();
  EXPECT_FALSE(HasIssue(outcome.report, AuditLayer::kWal))
      << outcome.report.ToString();
  // The flipped record started at or before the midpoint, so the
  // unverifiable suffix covers at least the second half of the log and
  // the padding behind it. The torn tail is its log part: never the
  // padding, which is reported apart (with any zero bytes that ended the
  // last record).
  const uint64_t log_bytes = static_cast<uint64_t>(end);
  const uint64_t torn = outcome.report.wal_torn_tail_bytes;
  const uint64_t padding = outcome.report.wal_padding_bytes;
  EXPECT_GE(torn + padding, wal.size() - log_bytes / 2);
  EXPECT_LT(torn + padding, wal.size());
  EXPECT_GT(torn, 0u);
  EXPECT_LT(torn, log_bytes);
  EXPECT_GE(padding, wal.size() - log_bytes);
  // The intact prefix still decodes and is counted; the flipped record
  // and those after it are not.
  EXPECT_GT(outcome.report.wal_records, 0u);
  EXPECT_LT(outcome.report.wal_records, records_before);
}

TEST(CorruptionTest, StoreMetaCorruptionDetected) {
  TempFile file("fsck_meta");
  BuildStore(file.path());
  auto bytes = ReadWholeFile(file.path());
  // The store bootstrap blob lives in the page-0 meta area (payload
  // offset 28); trash its magic and reseal so only the blob check,
  // not the page checksum, can object.
  bytes[kPageHeaderSize + 28] ^= 0xFF;
  Reseal(&bytes, 0);
  WriteWholeFile(file.path(), bytes);

  FsckOutcome outcome = RunFsck(file.path());
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_TRUE(HasIssue(outcome.report, AuditLayer::kMeta))
      << outcome.report.ToString();
}

TEST(CorruptionTest, MissingFileIsUsageError) {
  FsckOutcome outcome = RunFsck("/nonexistent/laxml_no_such_store.db");
  EXPECT_EQ(outcome.exit_code, 2);
  EXPECT_FALSE(outcome.error.empty());
}

}  // namespace
}  // namespace laxml
