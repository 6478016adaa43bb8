// Crash-recovery torture harness (closed loop).
//
// Each iteration opens a file-backed store whose page file and log sit
// on FaultyFiles (storage/faulty_file.h), runs a seeded random Table-1
// workload mirrored into an in-memory oracle store, arms one injected
// fault from a seeded schedule, then "crashes" — the injectors drop the
// unsynced bytes (the log may keep a seeded prefix: a torn tail), the
// bytes a real power loss would leave. The harness then checks, in
// order:
//
//   1. laxml_fsck over the crashed files verifies clean,
//   2. a plain reopen recovers (WAL replay) and CheckIntegrity passes,
//   3. the recovered document serializes byte-for-byte equal to the
//      oracle of acked commits (optionally plus the one in-flight
//      operation whose WAL record reached the disk before the crash —
//      logged-but-unacked work may legitimately survive; acked work
//      must).
//
// Failures print the iteration's seed, its armed fault and its crash
// cut (both pure functions of that seed), and the flags that replay the
// run up to it.
//
// The store file persists across iterations (each round tortures the
// state the previous round recovered), so later iterations run against
// an organically aged document.

#ifndef LAXML_TORTURE_TORTURE_H_
#define LAXML_TORTURE_TORTURE_H_

#include <cstdint>
#include <string>

namespace laxml {
namespace torture {

struct TortureOptions {
  /// Master seed; iteration i runs on a mix of (seed, i).
  uint64_t seed = 1;
  /// Crash/recover cycles to run.
  uint32_t iterations = 100;
  /// Workload operations attempted per iteration (an injected fault may
  /// end the iteration early).
  uint32_t ops_per_iteration = 40;
  /// Directory for the store + WAL files (must exist and be writable).
  std::string dir = ".";
  /// Page size of the store under torture. Small pages stress the
  /// allocator and overflow paths hardest.
  uint32_t page_size = 512;
  /// Buffer pool frames; small pools force mid-operation write-back.
  size_t pool_frames = 64;
  /// Token codec version for the store under torture (1 or 2). The
  /// in-memory oracle always runs the OTHER codec, so every Verify is
  /// also a v1-vs-v2 cross-codec comparison: both stores decode to the
  /// same canonical (v1-encoded) token stream or the run fails.
  uint32_t token_codec = 2;
  /// Print one progress line per iteration.
  bool verbose = false;
};

struct TortureReport {
  uint64_t iterations_run = 0;
  uint64_t ops_acked = 0;           ///< Mutations acknowledged OK.
  uint64_t ops_rejected = 0;        ///< Deterministic rejections.
  uint64_t faults_fired = 0;        ///< Injected faults that hit.
  uint64_t poisonings = 0;          ///< Iterations that fail-stopped.
  uint64_t torn_tail_crashes = 0;   ///< Crashes leaving a torn WAL tail.

  /// Empty on success; otherwise a description of the first invariant
  /// violation, with `failed_iteration` / `failed_seed` set so the run
  /// can be replayed.
  std::string error;
  uint64_t failed_iteration = 0;
  uint64_t failed_seed = 0;
  /// The failed iteration's armed fault (file, op class, N, sticky) and
  /// crash cut (bytes kept of how many unsynced, per file).
  std::string failed_schedule;

  bool ok() const { return error.empty(); }
};

/// Runs the closed loop. Never throws; all failures (including harness
/// I/O problems) are reported through TortureReport::error.
TortureReport RunTorture(const TortureOptions& options);

}  // namespace torture
}  // namespace laxml

#endif  // LAXML_TORTURE_TORTURE_H_
