// Helpers shared by the torture harnesses (torture.cc drives the
// storage stack directly; torture_net.cc drives a real server over
// real sockets). Internal to src/torture — tools link the public
// RunTorture / RunNetTorture entry points instead.

#ifndef LAXML_TORTURE_TORTURE_INTERNAL_H_
#define LAXML_TORTURE_TORTURE_INTERNAL_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "storage/faulty_file.h"
#include "store/store.h"

namespace laxml {
namespace torture {

/// splitmix64: decorrelates the per-iteration seed from the master seed
/// so --seed N and --seed N+1 run unrelated schedules.
uint64_t MixSeed(uint64_t seed, uint64_t iteration);

/// A status an in-memory oracle can never produce: the fault injectors
/// (or a genuinely sick disk) speak, and the store is expected to
/// fail-stop. Everything else (NotFound, InvalidArgument, ...) is a
/// deterministic rejection both stores must agree on.
bool IsEnvironmental(const Status& s);

/// One generated Table-1 operation, self-contained so it can be applied
/// to the store under torture, the oracle, and — when its effect may
/// have survived a crash or an ambiguous transport failure — the oracle
/// a second time during verification.
struct TortureOp {
  WalOp kind = WalOp::kInsertTopLevel;
  NodeId target = kInvalidNodeId;
  std::string xml;
};

/// Parses op.xml and runs the op through Store::Apply.
Result<NodeId> ApplyOp(Store& store, const TortureOp& op);

/// Picks a (probably) live node id by probing the oracle; the oracle
/// and the store under torture agree on liveness by invariant, so a
/// miss is just a deterministic rejection both sides see.
NodeId PickTarget(Random& rng, Store& oracle);

std::string RandomFragment(Random& rng);

/// Power loss under both injectors. The log keeps a seeded prefix of
/// its unsynced bytes half the time (a torn tail; `*torn_tails` counts
/// them); the page file keeps none, because a cut through a
/// checkpoint's page writes builds an image recovery cannot repair yet
/// (ROADMAP: crash-safe store checkpoints). Returns the cut as a
/// failure line names it.
std::string CrashFiles(Random& rng, FaultyFile* pages, FaultyFile* wal,
                       uint64_t* torn_tails);

/// Renders a token stream for a failure message. XML when the instance
/// is expressible as text; otherwise the encoded-token bytes in hex.
std::string Render(const TokenSequence& tokens);

/// Locates the first byte where the two renderings diverge and quotes a
/// window around it.
std::string DescribeDivergence(const TokenSequence& got_tokens,
                               const TokenSequence& want_tokens);

}  // namespace torture
}  // namespace laxml

#endif  // LAXML_TORTURE_TORTURE_INTERNAL_H_
