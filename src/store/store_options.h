// Tuning knobs of the Store — the adaptivity surface of the paper. The
// rows of Table 5 are built from three of them: the index mode (eager
// or lazy), the range-granularity cap (the "variable-sized ranges" axis
// the paper names as ongoing work) and the Partial Index capacity.

#ifndef LAXML_STORE_STORE_OPTIONS_H_
#define LAXML_STORE_STORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "storage/file.h"
#include "storage/pager.h"

namespace laxml {

/// Which id-locating structure the store maintains on disk.
enum class IndexMode : uint32_t {
  /// Eager: every node id is indexed with its exact token location the
  /// moment it is inserted (paper Section 4.1's strawman).
  kFullIndex = 0,
  /// Lazy: only the coarse Range Index; in-range positions are found by
  /// scanning, memoized by the Partial Index when
  /// partial_index_capacity > 0 (Section 5).
  kRangeIndex = 1,
};

const char* IndexModeName(IndexMode mode);

/// When (and by whom) a logged mutation's WAL record is fdatasync'd.
enum class WalSyncMode : uint32_t {
  /// Append unsynced; durability comes from checkpoints (replay covers
  /// a crash between checkpoints, but the tail may lose the last few
  /// operations). Without enable_wal: checkpoints only, no log.
  kNone = 0,
  /// fdatasync inside every mutating call. Simple, single-threaded
  /// commit durability — each committer pays a full device sync.
  kEveryCommit = 1,
  /// Append unsynced inside the mutating call; the caller makes the
  /// commit durable afterwards, outside the store's write latch, via
  /// GroupCommit::WaitDurable (SharedStore does this automatically).
  /// Concurrent committers share one fdatasync per batch.
  kGroupCommit = 2,
};

const char* WalSyncModeName(WalSyncMode mode);

/// Store construction options.
struct StoreOptions {
  /// Page size / buffer-pool sizing.
  PagerOptions pager;

  IndexMode index_mode = IndexMode::kRangeIndex;

  /// Maximum entries in the memory-resident Partial Index that caches
  /// locations found by lookups. Lazy mode only; 0 turns it off.
  size_t partial_index_capacity = 65536;

  /// Granularity cap: inserts larger than this many encoded bytes are
  /// cut into multiple Ranges. 0 = unbounded (a Range is exactly an
  /// insert unit — the paper's "few, coarse, large entries"); small
  /// values give "many, granular entries".
  uint32_t max_range_bytes = 0;

  /// Write-ahead logging of logical operations (file-backed stores
  /// only): mutations are journaled and replayed after a crash that
  /// interrupts un-checkpointed work.
  bool enable_wal = false;

  /// Commit durability policy for WAL records. Anything but kNone
  /// needs enable_wal; Open and OpenInMemory refuse the combination
  /// with InvalidArgument rather than run without the asked-for log.
  WalSyncMode wal_sync = WalSyncMode::kNone;

  /// Injection seam (file-backed stores): Open passes each File it opens
  /// through this wrapper before anything reads it — the page file,
  /// then the WAL. The fault-injection tests and laxml_torture slide a
  /// FaultyFile (storage/faulty_file.h) under both here. Returning
  /// nullptr fails the open.
  FileWrapper file_wrapper;

  /// When > 0, the store re-runs the full cross-layer integrity auditor
  /// (Store::CheckIntegrity) after every this-many mutating operations
  /// and fails the mutation with Corruption if anything is off.
  /// Defaults on in LAXML_PARANOID builds (the asan-ubsan / tsan CMake
  /// presets); 0 disables. O(store size) per audit — test-tier only.
#if defined(LAXML_PARANOID)
  uint32_t paranoid_audit_interval = 64;
#else
  uint32_t paranoid_audit_interval = 0;
#endif
};

}  // namespace laxml

#endif  // LAXML_STORE_STORE_OPTIONS_H_
