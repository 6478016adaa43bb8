#include "audit/fsck.h"

#include <sys/stat.h>

#include <memory>
#include <string>

#include "audit/store_auditor.h"
#include "audit/wal_audit.h"
#include "obs/metrics.h"
#include "storage/pager.h"
#include "store/store.h"

namespace laxml {
namespace {

// Store::Open refuses to open a full-index store lazily or a lazy one
// with the full index, so fsck reads the mode out of the meta blob
// first. This also front-loads the page-file-level checks (header
// magic, meta page checksum) before a full Store bootstrap.
Result<IndexMode> SniffIndexMode(const std::string& path) {
  PagerOptions po;
  po.read_only = true;
  po.pool_frames = 4;  // only the meta area is read
  LAXML_ASSIGN_OR_RETURN(auto pager, Pager::OpenFile(path, po));
  LAXML_ASSIGN_OR_RETURN(auto blob, pager->ReadMeta());
  return Store::StoredIndexMode(blob);
}

// Open/bootstrap failures that themselves mean "the store is corrupt"
// become an exit-1 finding; everything else (missing file, permissions)
// is exit 2.
void FailOutcome(FsckOutcome* out, const Status& status) {
  if (status.IsCorruption()) {
    AuditIssue issue;
    issue.layer = AuditLayer::kMeta;
    issue.message = "store failed to open: " + status.message();
    out->report.issues.push_back(std::move(issue));
    out->exit_code = 1;
  } else {
    out->error = status.ToString();
    out->exit_code = 2;
  }
}

// Last-resort localization for a store too corrupt to even open: fetch
// every page through a fresh read-only pager so checksum / self-id
// failures are reported with their page number.
void SweepRawPages(const std::string& path, size_t max_issues,
                   AuditReport* report) {
  PagerOptions po;
  po.read_only = true;
  po.pool_frames = 8;
  auto pager = Pager::OpenFile(path, po);
  if (!pager.ok()) return;
  const uint32_t page_count = (*pager)->page_count();
  for (PageId id = 1; id < page_count; ++id) {
    if (report->issues.size() >= max_issues) {
      report->truncated = true;
      return;
    }
    ++report->pages_swept;
    auto handle = (*pager)->Fetch(id);
    if (!handle.ok()) {
      AuditIssue issue;
      issue.layer = AuditLayer::kPage;
      issue.message = handle.status().ToString();
      issue.page = id;
      report->issues.push_back(std::move(issue));
    }
  }
}

}  // namespace

FsckOutcome RunFsck(const std::string& path, const FsckOptions& options) {
  FsckOutcome out;
  const uint64_t start_us = obs::NowMicros();
  // Copies the report-side work counters into the metrics block and
  // stamps the elapsed time; every return path below funnels through it.
  auto finish = [&out, start_us]() {
    out.metrics.tokens_decoded = out.report.tokens_scanned;
    out.metrics.ranges_walked = out.report.ranges_walked;
    out.metrics.wal_records = out.report.wal_records;
    out.metrics.elapsed_us = obs::NowMicros() - start_us;
  };

  // A directory opens (and then reads as garbage) on POSIX; that is a
  // usage error, not a corrupt store.
  struct stat path_sb;
  if (::stat(path.c_str(), &path_sb) == 0 && S_ISDIR(path_sb.st_mode)) {
    out.error = "'" + path + "' is a directory, not a store file";
    out.exit_code = 2;
    finish();
    return out;
  }

  auto mode = SniffIndexMode(path);
  if (!mode.ok()) {
    FailOutcome(&out, mode.status());
    finish();
    return out;
  }

  const std::string wal_path = path + ".wal";
  struct stat sb;
  const bool wal_exists = ::stat(wal_path.c_str(), &sb) == 0;
  out.wal_present = wal_exists;

  StoreOptions so;
  so.index_mode = *mode;
  so.pager.read_only = true;
  so.pager.pool_frames = options.pool_frames;
  so.enable_wal = wal_exists && options.replay_wal;
  so.paranoid_audit_interval = 0;  // one explicit audit below

  auto store = Store::Open(path, so);
  if (!store.ok()) {
    FailOutcome(&out, store.status());
    if (out.exit_code == 1) {
      // The store is corrupt beyond bootstrapping; localize what the
      // page layer can still see on its own.
      SweepRawPages(path, options.max_issues, &out.report);
      out.swept_pages = true;
      if (wal_exists) AuditWalFile(wal_path, &out.report);
    }
    out.metrics.pages_read = out.report.pages_swept;
    finish();
    return out;
  }

  AuditOptions ao;
  ao.max_issues = options.max_issues;
  // A replayed WAL tail legitimately diverges from the disk image (new
  // pages live only in the pool, freed pages are deferred off the free
  // chain until the next checkpoint), so the disk sweep only runs when
  // the checkpoint image *is* the store. The store itself reports
  // whether replay ran — a log holding only its checkpoint-epoch header
  // (every cleanly closed store has one) changes nothing in memory.
  const bool replayed_tail = (*store)->replayed_wal_tail();
  ao.check_pages = !replayed_tail;
  out.swept_pages = ao.check_pages;

  // The structural index is memory-resident, so a fresh open has
  // nothing memoized and its audit leg would vacuously pass. Warm it
  // from the recovered stream first: the warm pass exercises the full
  // cursor path, and the auditor's structural leg then re-derives every
  // interval independently and cross-checks. A warm failure is itself
  // a finding (the stream did not parse as a well-nested document).
  Status warm = (*store)->WarmStructuralIndex();
  if (!warm.ok()) {
    AuditIssue issue;
    issue.layer = AuditLayer::kStructuralIndex;
    issue.message = "structural warm-up failed: " + warm.message();
    out.report.issues.push_back(std::move(issue));
  }

  StoreAuditor auditor(store->get());
  AuditReport audit = auditor.Run(ao);
  // Keep any warm-up finding recorded above in front of the run's.
  audit.issues.insert(audit.issues.begin(), out.report.issues.begin(),
                      out.report.issues.end());
  out.report = std::move(audit);

  // With replay disabled the auditor never saw the log; its records are
  // still part of the store's state and must decode.
  if (wal_exists && !so.enable_wal) {
    AuditWalFile(wal_path, &out.report);
  }

  out.exit_code = out.report.ok() ? 0 : 1;
  const BufferPoolStats& pool = (*store)->pager()->pool()->stats();
  out.metrics.pages_read = pool.page_reads;
  out.metrics.pool_hits = pool.hits;
  finish();
  return out;
}

}  // namespace laxml
