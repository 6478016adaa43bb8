// Network torture harness: a seeded in-process client fleet against a
// real laxml server over real sockets, with injected socket faults on
// both sides and a mid-iteration server crash + restart.
//
// Each iteration starts a server over a file-backed store whose page
// file and log sit on FaultyFiles (storage/faulty_file.h), then runs N
// client threads.
// Every client owns a private top-level subtree (a per-client unique
// root tag) and mirrors its acked mutations into a private in-memory
// oracle, tracking an oracle-id <-> server-id map so later ops can
// target earlier results. Mid-iteration the harness crashes the server
// — power-loss semantics on the store files via the injectors — runs
// laxml_fsck over the crash image, recovers, and restarts the server
// on a fresh port the clients re-discover.
//
// The invariant under test: every client call ends in one of
//   * a correct response (verified against the oracle),
//   * an honest, typed retryable error (kRetryLater after the client's
//     backoff budget, DeadlineExceeded, or a fail-stop status), or
//   * a transport failure whose ambiguity the harness RESOLVES by
//     re-reading the client's subtree and comparing it against the
//     oracle with and without the in-flight op — matching neither is a
//     wrong answer and fails the run.
// Never a hang (every loop and socket wait is bounded) and never a
// corrupt frame accepted (CRC-checked by the codec).
//
// After the fleet drains, the server shuts down gracefully, fsck runs
// again, and each client's subtree must serialize byte-for-byte equal
// to its oracle.

#ifndef LAXML_TORTURE_NET_TORTURE_NET_H_
#define LAXML_TORTURE_NET_TORTURE_NET_H_

#include <cstdint>
#include <string>

namespace laxml {
namespace torture {

struct NetTortureOptions {
  /// Master seed; iteration i runs on a mix of (seed, i).
  uint64_t seed = 1;
  /// Crash/recover cycles to run.
  uint32_t iterations = 25;
  /// Concurrent client threads per iteration.
  uint32_t clients = 3;
  /// Mutations attempted per client per iteration (reads extra).
  uint32_t ops_per_client = 20;
  /// Directory for the store + WAL files (must exist and be writable).
  std::string dir = ".";
  uint32_t page_size = 512;
  size_t pool_frames = 64;
  /// Codec for the store under torture; each client's oracle runs the
  /// other one (cross-codec check, as in the storage harness).
  uint32_t token_codec = 2;
  bool verbose = false;
};

struct NetTortureReport {
  uint64_t iterations_run = 0;
  uint64_t ops_acked = 0;          ///< Mutations acknowledged OK.
  uint64_t ops_rejected = 0;       ///< Deterministic rejections.
  uint64_t ops_shed = 0;           ///< kRetryLater after backoff budget.
  uint64_t ops_deadline = 0;       ///< DeadlineExceeded responses.
  uint64_t transport_failures = 0; ///< Calls with no usable response.
  uint64_t ambiguous_applied = 0;  ///< Resolved: the lost ack had landed.
  uint64_t ambiguous_not_applied = 0;
  uint64_t reads_verified = 0;     ///< Live reads checked vs the oracle.
  uint64_t server_crashes = 0;

  /// Empty on success; otherwise the first invariant violation, with
  /// `failed_iteration` / `failed_seed` set for replay.
  std::string error;
  uint64_t failed_iteration = 0;
  uint64_t failed_seed = 0;
  /// The failed iteration's storage fault (none: this mode injects
  /// socket faults) and crash cut (bytes kept of how many unsynced, per
  /// file).
  std::string failed_schedule;

  bool ok() const { return error.empty(); }
};

/// Runs the closed loop. Never throws; all failures (including harness
/// problems) are reported through NetTortureReport::error.
NetTortureReport RunNetTorture(const NetTortureOptions& options);

}  // namespace torture
}  // namespace laxml

#endif  // LAXML_TORTURE_NET_TORTURE_NET_H_
