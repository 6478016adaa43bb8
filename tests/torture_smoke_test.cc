// Smoke coverage for the crash-recovery torture harness (the library
// under tools/laxml_torture): a few hundred deterministic iterations
// must come up clean, the run must be reproducible from its seed, and
// the loop must actually exercise the machinery it claims to (faults
// fired, stores poisoned, tails torn) rather than vacuously passing.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "test_util.h"
#include "torture/torture.h"
#include "torture_net/torture_net.h"

namespace laxml {
namespace {

// A directory of its own for each run (mkdtemp), removed afterwards, so
// two builds running this suite at once never share a store file.
class RunDir {
 public:
  explicit RunDir(const std::string& tag) {
    std::string path = ::testing::TempDir() + "laxml_torture_" + tag +
                       "_XXXXXX";
    if (::mkdtemp(path.data()) != nullptr) path_ = path;
  }
  ~RunDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    EXPECT_FALSE(ec) << "removing " << path_ << ": " << ec.message();
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

torture::TortureOptions SmokeOptions(const RunDir& dir) {
  torture::TortureOptions opts;
  opts.seed = 20260806;
  opts.iterations = 200;
  opts.ops_per_iteration = 30;
  opts.dir = dir.path();
  return opts;
}

TEST(TortureSmokeTest, TwoHundredIterationsSurviveCleanly) {
  RunDir dir("smoke");
  ASSERT_FALSE(dir.path().empty());
  auto opts = SmokeOptions(dir);
  torture::TortureReport report = torture::RunTorture(opts);
  EXPECT_TRUE(report.ok()) << report.error << " (iteration "
                           << report.failed_iteration << ", seed "
                           << report.failed_seed << ")";
  EXPECT_EQ(report.iterations_run, opts.iterations);

  // Coverage, not luck: the schedule must have injected real faults,
  // poisoned stores, and produced torn WAL tails along the way.
  EXPECT_GT(report.ops_acked, 0u);
  EXPECT_GT(report.faults_fired, 0u);
  EXPECT_GT(report.poisonings, 0u);
  EXPECT_GT(report.torn_tail_crashes, 0u);
}

TEST(TortureSmokeTest, BothDictionaryCapDrawsSurvive) {
  // Each iteration caps one side's name dictionary, the store under
  // torture's or the oracle's, so every Verify compares symbol-coded
  // names with inline ones. In 60 iterations both draws must occur, and
  // every iteration must pass.
  RunDir dir("dictcap");
  ASSERT_FALSE(dir.path().empty());
  auto opts = SmokeOptions(dir);
  opts.iterations = 60;
  torture::TortureReport report = torture::RunTorture(opts);
  EXPECT_TRUE(report.ok()) << report.error << " (iteration "
                           << report.failed_iteration << ", seed "
                           << report.failed_seed << ")";
  EXPECT_EQ(report.iterations_run, opts.iterations);
  EXPECT_GT(report.store_capped_iterations, 0u);
  EXPECT_LT(report.store_capped_iterations, report.iterations_run);
  EXPECT_GT(report.faults_fired, 0u);
}

TEST(TortureSmokeTest, NetworkFleetSurvivesFaultsAndCrashes) {
  torture::NetTortureOptions opts;
  opts.seed = 20260809;
  opts.iterations = 8;
  opts.clients = 3;
  opts.ops_per_client = 15;
  RunDir dir("net");
  ASSERT_FALSE(dir.path().empty());
  opts.dir = dir.path();

  torture::NetTortureReport report = torture::RunNetTorture(opts);
  EXPECT_TRUE(report.ok()) << report.error << " (iteration "
                           << report.failed_iteration << ", seed "
                           << report.failed_seed << ")";
  EXPECT_EQ(report.iterations_run, opts.iterations);

  // Coverage: real acks, real crash/restarts, and live reads verified
  // against the oracles. (Socket faults and shed/deadline traffic are
  // seed-dependent, so they are not asserted here — the CI run's
  // higher iteration count covers those.)
  EXPECT_GT(report.ops_acked, 0u);
  EXPECT_EQ(report.server_crashes, opts.iterations);
  EXPECT_GT(report.reads_verified, 0u);
}

TEST(TortureSmokeTest, SameSeedSameReport) {
  RunDir dir("determinism");
  ASSERT_FALSE(dir.path().empty());
  auto opts = SmokeOptions(dir);
  opts.iterations = 40;

  torture::TortureReport a = torture::RunTorture(opts);
  torture::TortureReport b = torture::RunTorture(opts);
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(a.ops_acked, b.ops_acked);
  EXPECT_EQ(a.ops_rejected, b.ops_rejected);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  EXPECT_EQ(a.poisonings, b.poisonings);
  EXPECT_EQ(a.torn_tail_crashes, b.torn_tail_crashes);
}

}  // namespace
}  // namespace laxml
