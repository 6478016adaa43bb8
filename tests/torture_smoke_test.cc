// Smoke coverage for the crash-recovery torture harness (the library
// under tools/laxml_torture): a few hundred deterministic iterations
// must come up clean, the run must be reproducible from its seed, and
// the loop must actually exercise the machinery it claims to (faults
// fired, stores poisoned, tails torn) rather than vacuously passing.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cerrno>
#include <string>

#include "test_util.h"
#include "torture/torture.h"
#include "torture_net/torture_net.h"

namespace laxml {
namespace {

torture::TortureOptions SmokeOptions(const std::string& tag) {
  torture::TortureOptions opts;
  opts.seed = 20260806;
  opts.iterations = 200;
  opts.ops_per_iteration = 30;
  opts.dir = ::testing::TempDir() + "laxml_torture_" + tag;
  return opts;
}

TEST(TortureSmokeTest, TwoHundredIterationsSurviveCleanly) {
  auto opts = SmokeOptions("smoke");
  ASSERT_EQ(::mkdir(opts.dir.c_str(), 0755) == 0 || errno == EEXIST, true);
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

TEST(TortureSmokeTest, V1CodecStoreSurvivesAgainstV2Oracle) {
  // The default run tortures a v2 store against a v1 oracle; flip it.
  // Either way every Verify is a byte-for-byte v1-vs-v2 comparison of
  // the decoded token streams under fault injection.
  auto opts = SmokeOptions("v1codec");
  opts.iterations = 60;
  opts.token_codec = 1;
  ASSERT_EQ(::mkdir(opts.dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  torture::TortureReport report = torture::RunTorture(opts);
  EXPECT_TRUE(report.ok()) << report.error << " (iteration "
                           << report.failed_iteration << ", seed "
                           << report.failed_seed << ")";
  EXPECT_GT(report.faults_fired, 0u);
}

TEST(TortureSmokeTest, NetworkFleetSurvivesFaultsAndCrashes) {
  torture::NetTortureOptions opts;
  opts.seed = 20260809;
  opts.iterations = 8;
  opts.clients = 3;
  opts.ops_per_client = 15;
  opts.dir = ::testing::TempDir() + "laxml_torture_net";
  ASSERT_EQ(::mkdir(opts.dir.c_str(), 0755) == 0 || errno == EEXIST, true);

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
  auto opts = SmokeOptions("determinism");
  opts.iterations = 40;
  ASSERT_EQ(::mkdir(opts.dir.c_str(), 0755) == 0 || errno == EEXIST, true);

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
