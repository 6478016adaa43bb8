// Deterministic fault-injection tests: FaultyFile programmed failures
// must surface through the engine as fail-stop poisoning (mutations
// rejected, reads still served), must never leak pages or mark
// unwritten frames clean, every crash artifact they can produce (power
// loss, torn page) must be caught by laxml_fsck, and a crash inside the
// log's growth, checkpoint reset or recovery trim must recover exactly
// the acknowledged state.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "audit/fsck.h"
#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/faulty_file.h"
#include "storage/page_file.h"
#include "store/store.h"
#include "test_util.h"

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
  FaultyFile faulty(std::make_unique<MemFile>());

  std::vector<uint8_t> buf(512, 0xAB);
  faulty.FailNth(FaultOp::kWrite, 2, Status::IOError("injected"));
  ASSERT_LAXML_OK(faulty.WriteAt(512, Slice(buf)));   // 1st: passes
  Status st = faulty.WriteAt(512, Slice(buf));        // 2nd: fails
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  ASSERT_LAXML_OK(faulty.WriteAt(512, Slice(buf)));   // 3rd: passes
  EXPECT_EQ(faulty.injected_faults(), 1u);

  faulty.ClearFaults();
  faulty.FailNth(FaultOp::kSync, 1, Status::IOError("injected"),
                 /*sticky=*/true);
  EXPECT_TRUE(faulty.Sync().IsIOError());
  EXPECT_TRUE(faulty.Sync().IsIOError());  // sticky keeps failing
  EXPECT_EQ(faulty.injected_faults(), 3u);
  EXPECT_EQ(faulty.op_count(FaultOp::kWrite), 3u);
}

std::string Bytes(File* file) {
  std::string bytes(file->Size(), '?');
  EXPECT_LAXML_OK(file->ReadAt(
      0, bytes.size(), reinterpret_cast<uint8_t*>(bytes.data())));
  return bytes;
}

// Held writes and resizes: reads replay them, a failed sync applies
// none of them, and a crash keeps a prefix of the written bytes in
// issue order — a resize only when a kept byte follows it.
TEST(InjectedFaultTest, CrashKeepsAPrefixOfTheHeldWritesInIssueOrder) {
  for (uint64_t keep : {3, 5}) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    FaultyFile faulty(std::make_unique<MemFile>());
    ASSERT_LAXML_OK(faulty.WriteAt(0, Slice(std::string("aaaa"))));
    ASSERT_LAXML_OK(faulty.Sync());
    ASSERT_LAXML_OK(faulty.WriteAt(2, Slice(std::string("bbbb"))));
    ASSERT_LAXML_OK(faulty.Resize(3));
    ASSERT_LAXML_OK(faulty.WriteAt(4, Slice(std::string("cc"))));
    EXPECT_EQ(Bytes(&faulty), std::string("aab\0cc", 6));
    EXPECT_EQ(faulty.unsynced_bytes(), 6u);
    ASSERT_EQ(faulty.unsynced_writes().size(), 2u);

    faulty.FailNth(FaultOp::kSync, faulty.op_count(FaultOp::kSync) + 1,
                   Status::IOError("injected"));
    EXPECT_TRUE(faulty.Sync().IsIOError());
    EXPECT_EQ(Bytes(faulty.base()), "aaaa");

    faulty.Crash(keep);
    EXPECT_EQ(Bytes(faulty.base()),
              keep == 3 ? std::string("aabbb") : std::string("aab\0c", 5));
    std::vector<uint8_t> buf(1);
    EXPECT_TRUE(faulty.ReadAt(0, 1, buf.data()).IsIOError());
  }
}

// ---------------------------------------------------------------------
// Fail-stop degradation: an injected WAL fdatasync failure under
// kEveryCommit must sticky-poison the store. Mutations are rejected
// with Poisoned, reads keep working, and the poisoned gauge plus the
// per-op I/O error counter are visible in the store's metrics scrape.
// ---------------------------------------------------------------------

TEST(InjectedFaultTest, EveryCommitSyncFailurePoisonsStore) {
  TempFile tmp("walsync_poison");
  FaultyFile* pages = nullptr;
  FaultyFile* fwf = nullptr;
  StoreOptions options;
  options.enable_wal = true;
  options.wal_sync = WalSyncMode::kEveryCommit;
  options.file_wrapper = WrapInFaultyFiles(&pages, &fwf);

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
  FaultyFile* fpf = nullptr;
  FaultyFile* wal = nullptr;
  StoreOptions options;
  options.pager.page_size = 512;
  options.pager.pool_frames = 8;  // tiny pool: merges evict dirty frames
  options.file_wrapper = WrapInFaultyFiles(&fpf, &wal);

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

// A page file over a FaultyFile over memory; `faulty` keeps the
// injector.
std::unique_ptr<PageFile> OpenOverFaultyFile(FaultyFile** faulty) {
  auto file = std::make_unique<FaultyFile>(std::make_unique<MemFile>());
  *faulty = file.get();
  auto page_file = PageFile::Open(std::move(file), 512);
  EXPECT_TRUE(page_file.ok()) << page_file.status().ToString();
  return std::move(page_file).value();
}

// Reads page `id` as the base file holds it once the injector has
// synced.
std::vector<uint8_t> SyncedPage(FaultyFile* faulty, PageId id) {
  std::vector<uint8_t> page(512);
  EXPECT_LAXML_OK(faulty->Sync());
  EXPECT_LAXML_OK(faulty->base()->ReadAt(uint64_t{id} * 512, 512, page.data()));
  return page;
}

TEST(InjectedFaultTest, FailedWriteBackKeepsFrameDirty) {
  FaultyFile* faulty_ptr = nullptr;
  std::unique_ptr<PageFile> file = OpenOverFaultyFile(&faulty_ptr);
  FaultyFile& faulty = *faulty_ptr;
  BufferPool pool(file.get(), 4);

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
  std::vector<uint8_t> readback = SyncedPage(&faulty, id);
  EXPECT_EQ(readback[kPageHeaderSize], 0x5A);
}

TEST(InjectedFaultTest, FailedEvictionWriteBackDoesNotLoseThePage) {
  FaultyFile* faulty_ptr = nullptr;
  std::unique_ptr<PageFile> file = OpenOverFaultyFile(&faulty_ptr);
  FaultyFile& faulty = *faulty_ptr;
  BufferPool pool(file.get(), 4);  // minimum: the fifth page needs a victim

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
  std::vector<uint8_t> readback = SyncedPage(&faulty, first);
  EXPECT_EQ(readback[kPageHeaderSize], 0x11);
}

// ---------------------------------------------------------------------
// Allocator: an op whose page allocation dies (the free-chain pop's
// read fails) must not leak pages off the free chain — fsck's page
// accounting (reachability + free-chain walk) over the surviving image
// must come up clean.
// ---------------------------------------------------------------------

TEST(InjectedFaultTest, FailedAllocateLeaksNoPages) {
  TempFile tmp("alloc_nospace");
  FaultyFile* fpf = nullptr;
  FaultyFile* wal = nullptr;
  StoreOptions options;
  options.pager.page_size = 512;
  options.pager.pool_frames = 32;
  options.file_wrapper = WrapInFaultyFiles(&fpf, &wal);

  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    ASSERT_NE(fpf, nullptr);
    ASSERT_LAXML_OK(store->LoadXml("<base><x/><y/></base>").status());
    // Put pages on the free chain: a multi-page document, deleted.
    ASSERT_OK_AND_ASSIGN(
        NodeId doomed,
        store->LoadXml("<gone>" + std::string(8 * 512, 'd') + "</gone>"));
    ASSERT_LAXML_OK(store->DeleteNode(doomed));
    ASSERT_LAXML_OK(store->Sync());
    const uint32_t free_pages = store->pager()->free_page_count();
    ASSERT_GT(free_pages, 0u);

    // The next read — the free-chain pop of the next page allocation,
    // since every live page is cached — fails, and keeps failing.
    fpf->FailNth(FaultOp::kRead, fpf->op_count(FaultOp::kRead) + 1,
                 Status::IOError("injected: free chain unreadable"),
                 /*sticky=*/true);
    auto failed =
        store->LoadXml("<big>" + std::string(8 * 512, 'z') + "</big>");
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
    EXPECT_TRUE(store->poisoned());
    EXPECT_EQ(store->pager()->free_page_count(), free_pages);
    store->TestOnlyCrash();
  }

  // The surviving image is the last checkpoint; every allocated page
  // must be reachable and the free chain must account for the rest.
  FsckOutcome outcome = RunFsck(tmp.path());
  EXPECT_EQ(outcome.exit_code, 0) << outcome.report.ToString();
  EXPECT_TRUE(outcome.swept_pages);
}

// ---------------------------------------------------------------------
// Power loss and torn pages.
// ---------------------------------------------------------------------

TEST(InjectedFaultTest, BufferedCrashRevertsToLastSyncedImage) {
  TempFile tmp("powerloss");
  FaultyFile* fpf = nullptr;
  FaultyFile* wal = nullptr;
  StoreOptions options;
  options.pager.page_size = 512;
  options.pager.pool_frames = 8;  // tiny pool: evictions write back early
  options.file_wrapper = WrapInFaultyFiles(&fpf, &wal);

  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    ASSERT_LAXML_OK(store->LoadXml("<keep/>").status());
    ASSERT_LAXML_OK(store->Sync());
    // Unsynced tail: enough churn that the pool writes frames back into
    // the injector, none of which may survive the crash.
    for (int i = 0; i < 20; ++i) {
      ASSERT_LAXML_OK(
          store->LoadXml("<lost>" + std::string(100, 'q') + "</lost>")
              .status());
    }
    ASSERT_GT(fpf->unsynced_bytes(), 0u);
    fpf->Crash(0);
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
  FaultyFile* fpf = nullptr;
  FaultyFile* wal = nullptr;
  StoreOptions options;
  options.pager.page_size = 512;
  options.pager.pool_frames = 8;
  options.file_wrapper = WrapInFaultyFiles(&fpf, &wal);

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
    // power dies: its checksum can no longer verify. The cut keeps the
    // writes issued before it whole.
    uint64_t keep = 0;
    for (const FaultyFile::Write& w : fpf->unsynced_writes()) {
      if (w.offset > 0 && w.offset + w.length <= fpf->base()->Size()) {
        torn = static_cast<PageId>(w.offset / 512);
        keep += 200;
        break;
      }
      keep += w.length;
    }
    fpf->Crash(keep);
    store->TestOnlyCrash();
  }
  ASSERT_NE(torn, kInvalidPageId) << "no unsynced in-place page write to tear";

  FsckOutcome outcome = RunFsck(tmp.path());
  EXPECT_EQ(outcome.exit_code, 1) << outcome.report.ToString();
  EXPECT_TRUE(HasIssueAt(outcome.report, AuditLayer::kPage, torn))
      << outcome.report.ToString();
  EXPECT_FALSE(HasIssue(outcome.report, AuditLayer::kWal));
}

// ---------------------------------------------------------------------
// Crashes inside the log file's own operations. Each case fails one
// write or sync of a WAL growth, checkpoint reset or recovery trim,
// then crashes at every write boundary of the log's unsynced bytes
// (the page file keeps nothing unsynced). Every image must pass fsck
// and recover exactly the acknowledged state — plus the failed commit,
// only when the cut kept its whole record — and the recovering open
// must leave a log of one checkpoint header over zeros.
// ---------------------------------------------------------------------

// Hands a store a File the test owns, so the test's FaultyFile
// outlives the store (or a failed Store::Open) and crashes after it.
class BorrowedFile : public File {
 public:
  explicit BorrowedFile(File* file) : file_(file) {}
  Status ReadAt(uint64_t offset, size_t n, uint8_t* buf) override {
    return file_->ReadAt(offset, n, buf);
  }
  Status WriteAt(uint64_t offset, Slice data) override {
    return file_->WriteAt(offset, data);
  }
  Status Sync() override { return file_->Sync(); }
  Status Resize(uint64_t size) override { return file_->Resize(size); }
  uint64_t Size() const override { return file_->Size(); }
  const std::string& path() const override { return file_->path(); }

 private:
  File* file_;
};

enum class WalStep { kGrowth, kReset, kTrim };

struct WalCrashCase {
  const char* name;
  WalStep step;
  FaultOp op;
  uint64_t nth;  ///< Counted from the step's first call of `op`.
  /// The failed commit's record is the one held write, so a cut that
  /// keeps all of it replays the commit.
  bool inflight_if_all_kept = false;
};

// A 150 KiB record grows the 64 KiB log to 256 KiB in three zero
// chunks.
const std::string kGrowText(150 << 10, 'g');

class WalCrashTest : public ::testing::Test {
 protected:
  WalCrashTest() : tmp_("walcrash") {}
  ~WalCrashTest() override { store_.reset(); }

  // Every file the store opens goes behind a test-owned FaultyFile. With
  // `arm`, the log's fault is armed before Store::Open reads it.
  StoreOptions Options(const WalCrashCase* arm) {
    StoreOptions options;
    options.enable_wal = true;
    options.wal_sync = WalSyncMode::kEveryCommit;
    options.file_wrapper =
        [this, arm](std::unique_ptr<File> base) -> std::unique_ptr<File> {
      const bool is_wal = base->path() == tmp_.path() + ".wal";
      std::unique_ptr<FaultyFile>& slot = is_wal ? wal_ : pages_;
      slot = std::make_unique<FaultyFile>(std::move(base));
      if (is_wal && arm != nullptr) Arm(*arm);
      return std::make_unique<BorrowedFile>(slot.get());
    };
    return options;
  }

  void Arm(const WalCrashCase& c) {
    wal_->FailNth(c.op, wal_->op_count(c.op) + c.nth,
                  Status::IOError("injected"));
  }

  void Crash(uint64_t keep_bytes) {
    wal_->Crash(keep_bytes);
    pages_->Crash(0);
    store_.reset();
  }

  // Runs `c` on a fresh store up to its injected fault; the log's
  // unsynced writes are then the fault's.
  void DriveToFault(const WalCrashCase& c) {
    store_.reset();
    std::remove(tmp_.path().c_str());
    std::remove((tmp_.path() + ".wal").c_str());
    ASSERT_OK_AND_ASSIGN(store_, Store::Open(tmp_.path(), Options(nullptr)));
    ASSERT_OK_AND_ASSIGN(NodeId root, store_->LoadXml("<log/>"));
    const std::string grown = "<log><e>" + kGrowText + "</e></log>";
    auto insert = [&](const std::string& text) {
      return store_->InsertIntoLast(
          root, testing::MustFragment("<e>" + text + "</e>"));
    };
    if (c.step == WalStep::kGrowth) {
      acked_ = "<log/>";
      inflight_ = grown;
      Arm(c);
      ASSERT_FALSE(insert(kGrowText).ok());
      return;
    }
    if (c.step == WalStep::kTrim) {
      // A torn record that grew the log, starting in its first 64 KiB
      // (which a reset keeps) and spanning three of the trim's zero
      // chunks; then the fault inside the reopen's trim.
      acked_ = inflight_ = "<log/>";
      wal_->FailNth(FaultOp::kSync, wal_->op_count(FaultOp::kSync) + 2,
                    Status::IOError("injected"));
      ASSERT_FALSE(insert(kGrowText).ok());
      ASSERT_GT(wal_->unsynced_bytes(), uint64_t{4096});
      Crash(wal_->unsynced_bytes() - 4096);
      ASSERT_FALSE(Store::Open(tmp_.path(), Options(&c)).ok());
      return;
    }
    ASSERT_LAXML_OK(insert(kGrowText).status());
    acked_ = inflight_ = grown;
    Arm(c);
    ASSERT_FALSE(store_->Sync().ok());
  }

  void ExpectRecovers(const std::string& want) {
    FsckOutcome crashed = RunFsck(tmp_.path());
    EXPECT_EQ(crashed.exit_code, 0)
        << crashed.error << crashed.report.ToString();
    StoreOptions plain;
    plain.enable_wal = true;
    plain.wal_sync = WalSyncMode::kEveryCommit;
    {
      ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp_.path(), plain));
      ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
      EXPECT_EQ(xml.size(), want.size());
      EXPECT_TRUE(xml == want);
      store->TestOnlyCrash();  // keep the log as recovery left it
    }
    FsckOutcome recovered = RunFsck(tmp_.path());
    EXPECT_EQ(recovered.exit_code, 0)
        << recovered.error << recovered.report.ToString();
    EXPECT_EQ(recovered.report.wal_records, 1u);
    EXPECT_EQ(recovered.report.wal_torn_tail_bytes, 0u);
  }

  TempFile tmp_;
  std::unique_ptr<FaultyFile> pages_;
  std::unique_ptr<FaultyFile> wal_;
  std::unique_ptr<Store> store_;
  std::string acked_;
  std::string inflight_;
};

TEST_F(WalCrashTest, FaultsInGrowthResetAndTrimRecoverTheAckedState) {
  const WalCrashCase cases[] = {
      {"growth chunk 1", WalStep::kGrowth, FaultOp::kWrite, 1},
      {"growth chunk 2", WalStep::kGrowth, FaultOp::kWrite, 2},
      {"growth chunk 3", WalStep::kGrowth, FaultOp::kWrite, 3},
      {"growth's record", WalStep::kGrowth, FaultOp::kWrite, 4},
      {"growth sync", WalStep::kGrowth, FaultOp::kSync, 1},
      {"growth's commit sync", WalStep::kGrowth, FaultOp::kSync, 2, true},
      {"reset resize", WalStep::kReset, FaultOp::kResize, 1},
      {"reset zeroing", WalStep::kReset, FaultOp::kWrite, 1},
      {"reset sync", WalStep::kReset, FaultOp::kSync, 1},
      {"trim chunk 1", WalStep::kTrim, FaultOp::kWrite, 1},
      {"trim chunk 2", WalStep::kTrim, FaultOp::kWrite, 2},
      {"trim chunk 3", WalStep::kTrim, FaultOp::kWrite, 3},
      {"trim sync", WalStep::kTrim, FaultOp::kSync, 1},
  };
  for (const WalCrashCase& c : cases) {
    SCOPED_TRACE(c.name);
    DriveToFault(c);
    if (HasFatalFailure()) return;
    EXPECT_EQ(wal_->injected_faults(), 1u);
    std::vector<uint64_t> cuts = {0};
    for (const FaultyFile::Write& w : wal_->unsynced_writes()) {
      cuts.push_back(cuts.back() + w.length);
    }
    for (size_t i = 0; i < cuts.size(); ++i) {
      SCOPED_TRACE("keeping " + std::to_string(cuts[i]) + " of " +
                   std::to_string(cuts.back()) + " unsynced log bytes");
      if (i > 0) DriveToFault(c);
      if (HasFatalFailure()) return;
      Crash(cuts[i]);
      const bool inflight = c.inflight_if_all_kept && i > 0 &&
                            i + 1 == cuts.size();
      ExpectRecovers(inflight ? inflight_ : acked_);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace laxml
