// laxml_torture: crash-recovery torture loop (see src/torture/ and
// src/torture_net/).
//
//   laxml_torture [--iters N] [--seed S] [--ops N] [--dir PATH] [-v]
//   laxml_torture --net [--clients N] [--iters N] [--seed S] [--ops N]
//
// Default (storage) mode runs N seeded crash/recover cycles against a
// store backed by the fault injectors and cross-checks every recovery
// against an in-memory oracle of acknowledged commits. Network mode
// (--net) runs a seeded in-process client fleet against a real server
// over real sockets with injected socket faults and a mid-run server
// crash + restart; every client must observe a correct response, a
// clean timeout, or an honest retryable error — never a hang or a
// wrong answer. Exit codes:
//
//   0  every iteration recovered to exactly the acked state
//   1  an invariant broke — the reproducer seed is printed; re-run
//      with  --seed <that value> --iters 1  to replay the schedule
//   2  usage error

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "torture/torture.h"
#include "torture_net/torture_net.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "\n"
      "Crash-recovery torture loop: seeded random workload against a\n"
      "fault-injected store, power-loss crash, fsck + recovery, and a\n"
      "byte-for-byte cross-check against an oracle of acked commits.\n"
      "With --net, the workload runs as a client fleet over real\n"
      "sockets with injected network faults and a mid-run server\n"
      "crash + restart.\n"
      "\n"
      "options:\n"
      "  --iters N   crash/recover cycles to run (default 100;\n"
      "              25 in --net mode)\n"
      "  --seed S    master seed (default 1); a failure prints the\n"
      "              exact flags that replay it\n"
      "  --ops N     workload operations per iteration (default 40;\n"
      "              per client in --net mode, default 20)\n"
      "  --dir PATH  directory for the store files (default .)\n"
      "  --codec N   token codec for the store under torture (1 or 2,\n"
      "              default 2); the oracle runs the other codec, so\n"
      "              every verify cross-checks v1 vs v2 byte-for-byte\n"
      "  --net       network mode: client fleet vs a real server with\n"
      "              socket fault injection and crash + restart\n"
      "  --clients N concurrent client threads in --net mode (default 3)\n"
      "  -v          one progress line per iteration\n"
      "  -h, --help  this message\n",
      argv0);
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  laxml::torture::TortureOptions options;
  bool net_mode = false;
  uint32_t clients = 3;
  bool iters_set = false;
  bool ops_set = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    uint64_t v = 0;
    if (std::strcmp(arg, "--iters") == 0) {
      if (!ParseU64(need_value("--iters"), &v)) { Usage(argv[0]); return 2; }
      options.iterations = static_cast<uint32_t>(v);
      iters_set = true;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!ParseU64(need_value("--seed"), &v)) { Usage(argv[0]); return 2; }
      options.seed = v;
    } else if (std::strcmp(arg, "--ops") == 0) {
      if (!ParseU64(need_value("--ops"), &v)) { Usage(argv[0]); return 2; }
      options.ops_per_iteration = static_cast<uint32_t>(v);
      ops_set = true;
    } else if (std::strcmp(arg, "--dir") == 0) {
      options.dir = need_value("--dir");
    } else if (std::strcmp(arg, "--codec") == 0) {
      if (!ParseU64(need_value("--codec"), &v) || v < 1 || v > 2) {
        Usage(argv[0]);
        return 2;
      }
      options.token_codec = static_cast<uint32_t>(v);
    } else if (std::strcmp(arg, "--net") == 0) {
      net_mode = true;
    } else if (std::strcmp(arg, "--clients") == 0) {
      if (!ParseU64(need_value("--clients"), &v) || v < 1 || v > 64) {
        Usage(argv[0]);
        return 2;
      }
      clients = static_cast<uint32_t>(v);
    } else if (std::strcmp(arg, "-v") == 0) {
      options.verbose = true;
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg);
      Usage(argv[0]);
      return 2;
    }
  }

  if (net_mode) {
    laxml::torture::NetTortureOptions net;
    net.seed = options.seed;
    net.dir = options.dir;
    net.token_codec = options.token_codec;
    net.verbose = options.verbose;
    net.clients = clients;
    if (iters_set) net.iterations = options.iterations;
    if (ops_set) net.ops_per_client = options.ops_per_iteration;
    laxml::torture::NetTortureReport report =
        laxml::torture::RunNetTorture(net);
    std::printf(
        "net torture: %llu/%u iterations, %llu acked ops, %llu "
        "rejections, %llu shed, %llu deadline-exceeded, %llu transport "
        "failures (%llu resolved applied, %llu not applied), %llu reads "
        "verified, %llu server crashes\n",
        static_cast<unsigned long long>(report.iterations_run),
        net.iterations, static_cast<unsigned long long>(report.ops_acked),
        static_cast<unsigned long long>(report.ops_rejected),
        static_cast<unsigned long long>(report.ops_shed),
        static_cast<unsigned long long>(report.ops_deadline),
        static_cast<unsigned long long>(report.transport_failures),
        static_cast<unsigned long long>(report.ambiguous_applied),
        static_cast<unsigned long long>(report.ambiguous_not_applied),
        static_cast<unsigned long long>(report.reads_verified),
        static_cast<unsigned long long>(report.server_crashes));
    if (!report.ok()) {
      std::fprintf(
          stderr,
          "FAILED at iteration %llu (iteration seed %llu): %s\n"
          "%s\n"
          "reproduce with: %s --net --seed %llu --iters %llu --ops %u "
          "--clients %u\n",
          static_cast<unsigned long long>(report.failed_iteration),
          static_cast<unsigned long long>(report.failed_seed),
          report.error.c_str(), report.failed_schedule.c_str(), argv[0],
          static_cast<unsigned long long>(net.seed),
          static_cast<unsigned long long>(report.failed_iteration + 1),
          net.ops_per_client, net.clients);
      return 1;
    }
    return 0;
  }

  laxml::torture::TortureReport report = laxml::torture::RunTorture(options);
  std::printf(
      "torture: %llu/%u iterations, %llu acked ops, %llu deterministic "
      "rejections, %llu injected faults, %llu poisonings, %llu torn-tail "
      "crashes\n",
      static_cast<unsigned long long>(report.iterations_run),
      options.iterations, static_cast<unsigned long long>(report.ops_acked),
      static_cast<unsigned long long>(report.ops_rejected),
      static_cast<unsigned long long>(report.faults_fired),
      static_cast<unsigned long long>(report.poisonings),
      static_cast<unsigned long long>(report.torn_tail_crashes));
  if (!report.ok()) {
    // The run is fully deterministic in (seed, ops): replaying the
    // master seed up through the failed iteration reproduces the exact
    // store state and fault schedule.
    std::fprintf(stderr,
                 "FAILED at iteration %llu (iteration seed %llu): %s\n"
                 "%s\n"
                 "reproduce with: %s --seed %llu --iters %llu --ops %u\n",
                 static_cast<unsigned long long>(report.failed_iteration),
                 static_cast<unsigned long long>(report.failed_seed),
                 report.error.c_str(), report.failed_schedule.c_str(),
                 argv[0],
                 static_cast<unsigned long long>(options.seed),
                 static_cast<unsigned long long>(report.failed_iteration + 1),
                 options.ops_per_iteration);
    return 1;
  }
  return 0;
}
