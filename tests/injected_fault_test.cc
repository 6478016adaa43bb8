// Deterministic fault-injection tests: FaultyPageFile / FaultyWalFile
// programmed failures must surface through the engine as fail-stop
// poisoning (mutations rejected, reads still served), must never leak
// pages or mark unwritten frames clean, and every crash artifact they
// can produce (power loss, torn page) must be caught by laxml_fsck.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "audit/fsck.h"
#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/faulty_page_file.h"
#include "storage/page_file.h"
#include "store/store.h"
#include "test_util.h"
#include "wal/wal_file.h"

namespace laxml {
namespace {

using testing::TempFile;

bool HasIssue(const AuditReport& report, AuditLayer layer) {
  for (const AuditIssue& issue : report.issues) {
    if (issue.layer == layer) return true;
  }
  return false;
}

bool HasIssueAt(const AuditReport& report, AuditLayer layer, PageId page) {
  for (const AuditIssue& issue : report.issues) {
    if (issue.layer == layer && issue.page == page) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// FaultPlan mechanics on the raw decorator.
// ---------------------------------------------------------------------

TEST(InjectedFaultTest, FailNthFiresOnceAndStickyFiresForever) {
  auto base = std::make_unique<MemoryPageFile>(512);
  FaultyPageFile faulty(std::move(base));
  ASSERT_OK_AND_ASSIGN(PageId page, faulty.AllocatePage());

  std::vector<uint8_t> buf(512, 0xAB);
  faulty.FailNth(FaultOp::kWrite, 2, Status::IOError("injected"));
  ASSERT_LAXML_OK(faulty.WritePage(page, buf.data()));   // 1st: passes
  Status st = faulty.WritePage(page, buf.data());        // 2nd: fails
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  ASSERT_LAXML_OK(faulty.WritePage(page, buf.data()));   // 3rd: passes
  EXPECT_EQ(faulty.injected_faults(), 1u);

  faulty.ClearFaults();
  faulty.FailNth(FaultOp::kSync, 1, Status::IOError("injected"),
                 /*sticky=*/true);
  EXPECT_TRUE(faulty.Sync().IsIOError());
  EXPECT_TRUE(faulty.Sync().IsIOError());  // sticky keeps failing
  EXPECT_EQ(faulty.injected_faults(), 3u);
  EXPECT_EQ(faulty.op_count(FaultOp::kWrite), 3u);
}

// ---------------------------------------------------------------------
// Fail-stop degradation: an injected WAL fdatasync failure under
// kEveryCommit must sticky-poison the store. Mutations are rejected
// with Poisoned, reads keep working, and the poisoned gauge plus the
// per-op I/O error counter are visible in the store's metrics scrape.
// ---------------------------------------------------------------------

TEST(InjectedFaultTest, EveryCommitSyncFailurePoisonsStore) {
  TempFile tmp("walsync_poison");
  FaultyWalFile* fwf = nullptr;
  StoreOptions options;
  options.enable_wal = true;
  options.wal_sync = WalSyncMode::kEveryCommit;
  options.wal_file_wrapper =
      [&fwf](std::unique_ptr<WalFile> base) -> std::unique_ptr<WalFile> {
    auto wrapped = FaultyWalFile::Wrap(std::move(base));
    if (!wrapped.ok()) return nullptr;
    fwf = wrapped->get();
    return std::move(wrapped).value();
  };

  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
  ASSERT_NE(fwf, nullptr);
  ASSERT_OK_AND_ASSIGN(NodeId root, store->LoadXml("<root><a/></root>"));
  EXPECT_FALSE(store->poisoned());

  // The next fdatasync dies and keeps dying (a dead device, not a
  // transient hiccup).
  fwf->FailNth(FaultOp::kSync, fwf->op_count(FaultOp::kSync) + 1,
               Status::IOError("injected sync failure"), /*sticky=*/true);

  auto failed = store->LoadXml("<late/>");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_TRUE(store->poisoned());

  // Every further mutation is rejected with the sticky Poisoned error.
  auto rejected = store->DeleteNode(root);
  EXPECT_TRUE(rejected.IsPoisoned()) << rejected.ToString();
  auto rejected2 = store->LoadXml("<x/>");
  EXPECT_TRUE(rejected2.status().IsPoisoned());

  // Reads continue in degraded mode off the in-memory state.
  ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
  EXPECT_EQ(xml, "<root><a/></root>");

  // The alert surface: poisoned gauge up, io-error counter bumped.
  obs::Snapshot snap;
  obs::CollectStoreMetrics(*store, &snap);
  EXPECT_EQ(snap.gauges.at("laxml_store_poisoned"), 1);
  EXPECT_EQ(
      snap.counters.at("laxml_io_errors_total{op=\"insert_top_level\"}"),
      1u);

  store->TestOnlyCrash();  // don't write back through the dead device
}

// ---------------------------------------------------------------------
// Range compaction: a page write that dies mid-merge fail-stops the
// store like a failed Table-1 mutation, under its own op label.
// ---------------------------------------------------------------------

TEST(InjectedFaultTest, WriteFailureMidCompactionPoisonsStore) {
  TempFile tmp("compact_write");
  FaultyPageFile* fpf = nullptr;
  StoreOptions options;
  options.pager.page_size = 512;
  options.pager.pool_frames = 8;  // tiny pool: merges evict dirty frames
  options.pager.file_wrapper =
      [&fpf](std::unique_ptr<PageFile> base) -> std::unique_ptr<PageFile> {
    auto faulty = std::make_unique<FaultyPageFile>(std::move(base));
    fpf = faulty.get();
    return faulty;
  };

  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
  ASSERT_NE(fpf, nullptr);
  ASSERT_LAXML_OK(store->LoadXml("<log/>").status());
  for (int i = 0; i < 200; ++i) {
    ASSERT_LAXML_OK(store
                        ->InsertIntoLast(1, testing::MustFragment(
                                                "<e>" + std::string(40, 'x') +
                                                "</e>"))
                        .status());
  }
  ASSERT_LAXML_OK(store->Sync());

  fpf->FailNth(FaultOp::kWrite, fpf->op_count(FaultOp::kWrite) + 1,
               Status::IOError("injected write failure"), /*sticky=*/true);
  auto merged = store->CompactRanges(1 << 16);
  ASSERT_FALSE(merged.ok());
  EXPECT_TRUE(merged.status().IsIOError()) << merged.status().ToString();
  EXPECT_TRUE(store->poisoned());

  obs::Snapshot snap;
  obs::CollectStoreMetrics(*store, &snap);
  EXPECT_EQ(snap.counters["laxml_io_errors_total{op=\"compact_ranges\"}"],
            1u);

  store->TestOnlyCrash();  // don't write back through the dead device
}

// ---------------------------------------------------------------------
// Buffer pool: a failed WritePage during write-back must leave the
// frame dirty (losing the only copy of the page would be data loss),
// and the error must keep surfacing on FlushAll until the device
// recovers.
// ---------------------------------------------------------------------

TEST(InjectedFaultTest, FailedWriteBackKeepsFrameDirty) {
  auto base = std::make_unique<MemoryPageFile>(512);
  FaultyPageFile faulty(std::move(base));
  BufferPool pool(&faulty, 4);

  PageId id;
  {
    ASSERT_OK_AND_ASSIGN(PageHandle page, pool.New(PageType::kSlotted));
    id = page.id();
    std::memset(page.data() + kPageHeaderSize, 0x5A, 64);
    page.MarkDirty();
  }
  ASSERT_EQ(pool.dirty_count(), 1u);

  faulty.FailNth(FaultOp::kWrite, faulty.op_count(FaultOp::kWrite) + 1,
                 Status::IOError("injected write failure"), /*sticky=*/true);
  Status st = pool.FlushAll();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // The write never reached the file, so the frame must still be dirty
  // — and the error must not be a one-shot.
  EXPECT_EQ(pool.dirty_count(), 1u);
  EXPECT_TRUE(pool.FlushAll().IsIOError());

  // Device recovers: the retained dirty frame flushes and the page
  // content is intact on the file.
  faulty.ClearFaults();
  ASSERT_LAXML_OK(pool.FlushAll());
  EXPECT_EQ(pool.dirty_count(), 0u);
  std::vector<uint8_t> readback(512);
  ASSERT_LAXML_OK(faulty.base()->ReadPage(id, readback.data()));
  EXPECT_EQ(readback[kPageHeaderSize], 0x5A);
}

TEST(InjectedFaultTest, FailedEvictionWriteBackDoesNotLoseThePage) {
  auto base = std::make_unique<MemoryPageFile>(512);
  FaultyPageFile faulty(std::move(base));
  BufferPool pool(&faulty, 4);  // minimum size: the fifth page needs a victim

  PageId first;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(PageHandle page, pool.New(PageType::kSlotted));
    if (i == 0) {
      first = page.id();
      std::memset(page.data() + kPageHeaderSize, 0x11, 16);
      page.MarkDirty();
    }
  }

  faulty.FailNth(FaultOp::kWrite, faulty.op_count(FaultOp::kWrite) + 1,
                 Status::IOError("injected write failure"), /*sticky=*/true);
  // Grabbing a fifth frame must evict a dirty victim; the write-back
  // fails, so the New() fails rather than dropping the dirty page.
  auto fifth = pool.New(PageType::kSlotted);
  EXPECT_FALSE(fifth.ok());

  faulty.ClearFaults();
  ASSERT_LAXML_OK(pool.FlushAll());
  std::vector<uint8_t> readback(512);
  ASSERT_LAXML_OK(faulty.base()->ReadPage(first, readback.data()));
  EXPECT_EQ(readback[kPageHeaderSize], 0x11);
}

// ---------------------------------------------------------------------
// Allocator: an op that dies on AllocatePage (ENOSPC) must not leak
// pages off the free chain — fsck's page accounting (reachability +
// free-chain walk) over the surviving image must come up clean.
// ---------------------------------------------------------------------

TEST(InjectedFaultTest, FailedAllocateLeaksNoPages) {
  TempFile tmp("alloc_nospace");
  FaultyPageFile* fpf = nullptr;
  StoreOptions options;
  options.pager.page_size = 512;
  options.pager.pool_frames = 32;
  options.pager.file_wrapper =
      [&fpf](std::unique_ptr<PageFile> base) -> std::unique_ptr<PageFile> {
    auto faulty = std::make_unique<FaultyPageFile>(std::move(base));
    fpf = faulty.get();
    return faulty;
  };

  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    ASSERT_NE(fpf, nullptr);
    ASSERT_LAXML_OK(store->LoadXml("<base><x/><y/></base>").status());
    ASSERT_LAXML_OK(store->Sync());

    // The very next page allocation reports a full disk, forever.
    fpf->FailNth(FaultOp::kAlloc, fpf->op_count(FaultOp::kAlloc) + 1,
                 Status::NoSpace("injected: disk full"), /*sticky=*/true);
    auto failed =
        store->LoadXml("<big>" + std::string(8 * 512, 'z') + "</big>");
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsNoSpace()) << failed.status().ToString();
    EXPECT_TRUE(store->poisoned());
    store->TestOnlyCrash();
  }

  // The surviving image is the last checkpoint; every allocated page
  // must be reachable and the free chain must account for the rest.
  FsckOutcome outcome = RunFsck(tmp.path());
  EXPECT_EQ(outcome.exit_code, 0) << outcome.report.ToString();
  EXPECT_TRUE(outcome.swept_pages);
}

// ---------------------------------------------------------------------
// Power loss and torn pages (buffered mode).
// ---------------------------------------------------------------------

TEST(InjectedFaultTest, BufferedCrashRevertsToLastSyncedImage) {
  TempFile tmp("powerloss");
  FaultyPageFile* fpf = nullptr;
  StoreOptions options;
  options.pager.page_size = 512;
  options.pager.pool_frames = 8;  // tiny pool: evictions write back early
  options.pager.file_wrapper =
      [&fpf](std::unique_ptr<PageFile> base) -> std::unique_ptr<PageFile> {
    auto faulty =
        std::make_unique<FaultyPageFile>(std::move(base), /*buffered=*/true);
    fpf = faulty.get();
    return faulty;
  };

  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    ASSERT_LAXML_OK(store->LoadXml("<keep/>").status());
    ASSERT_LAXML_OK(store->Sync());
    // Unsynced tail: enough churn that the pool writes frames back into
    // the injector's overlay, none of which may survive the crash.
    for (int i = 0; i < 20; ++i) {
      ASSERT_LAXML_OK(
          store->LoadXml("<lost>" + std::string(100, 'q') + "</lost>")
              .status());
    }
    fpf->Crash();
    store->TestOnlyCrash();
  }

  StoreOptions plain;
  plain.pager.page_size = 512;
  ASSERT_OK_AND_ASSIGN(auto reopened, Store::Open(tmp.path(), plain));
  ASSERT_OK_AND_ASSIGN(std::string xml, reopened->SerializeToXml());
  EXPECT_EQ(xml, "<keep/>");
}

TEST(InjectedFaultTest, TornPageWriteIsCaughtByFsck) {
  TempFile tmp("tornpage");
  FaultyPageFile* fpf = nullptr;
  StoreOptions options;
  options.pager.page_size = 512;
  options.pager.pool_frames = 8;
  options.pager.file_wrapper =
      [&fpf](std::unique_ptr<PageFile> base) -> std::unique_ptr<PageFile> {
    auto faulty =
        std::make_unique<FaultyPageFile>(std::move(base), /*buffered=*/true);
    fpf = faulty.get();
    return faulty;
  };

  PageId torn = kInvalidPageId;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    ASSERT_LAXML_OK(store->LoadXml("<base><a/><b/></base>").status());
    ASSERT_LAXML_OK(store->Sync());
    for (int i = 0; i < 20; ++i) {
      ASSERT_LAXML_OK(
          store->LoadXml("<t>" + std::string(100, 'w') + "</t>").status());
    }
    // Half of one in-place page update reaches the platter before the
    // power dies: its checksum can no longer verify.
    torn = fpf->CrashWithTornPage(/*keep_bytes=*/200);
    store->TestOnlyCrash();
  }
  ASSERT_NE(torn, kInvalidPageId) << "no buffered page write to tear";

  FsckOutcome outcome = RunFsck(tmp.path());
  EXPECT_EQ(outcome.exit_code, 1) << outcome.report.ToString();
  EXPECT_TRUE(HasIssueAt(outcome.report, AuditLayer::kPage, torn))
      << outcome.report.ToString();
  EXPECT_FALSE(HasIssue(outcome.report, AuditLayer::kWal));
}

}  // namespace
}  // namespace laxml
