// bench_server: closed-loop N-client throughput/latency benchmark of
// the laxml network server over loopback.
//
// Spins up a Server on an ephemeral port, gives each client thread its
// own connection and its own top-level subtree, and runs a closed loop
// (next request only after the previous response) of a mixed workload:
// inserts into the client's subtree, subtree reads of its own nodes,
// and XPath queries. A second phase measures pipelined batch inserts
// (CallBatch) against the one-at-a-time baseline. Reports per-op
// p50/p95/p99/max latency and aggregate throughput.
//
//   bench_server [--clients N] [--ops N] [--threads N] [--batch N]
//                [--sync] [--read-pct N] [--zipf S] [--json out.json]
//                [--overload] [--overload-secs N]
//
//   --overload  replaces both phases with an admission-control stress:
//               a deliberately small server (bounded queue) against a
//               closed-loop fleet sized to ~4x its saturation
//               concurrency. Reports the unloaded baseline, the
//               accepted-request percentiles under overload, and the
//               shed rate — bounded queues are what keep the accepted
//               tail flat when offered load is not.
//
//   --sync      file-backed store + WAL + group commit: every mutation
//               is acknowledged only once fdatasync'd. The scaling of
//               synced-write throughput with --clients is the group
//               commit's reason to exist.
//   --sync-every  like --sync but one fdatasync per commit (the
//               pre-group-commit behaviour) — the baseline the group
//               commit's gain is measured against.
//   --read-pct  N% of phase-1 ops are subtree reads over a pre-
//               populated working set, the rest inserts (replaces the
//               default 50/40/10 insert/read/xpath mix).
//   --zipf      skew of the read target distribution (0 = uniform).
//   --json      machine-readable report (bench_util.h JsonReport).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "store/store.h"
#include "workload/zipf.h"
#include "xml/token_sequence.h"

namespace laxml {
namespace {

struct OpSamples {
  std::vector<double> insert_us;
  std::vector<double> read_us;
  std::vector<double> xpath_us;
};

void PrintRow(const char* name, std::vector<double>* samples,
              double seconds) {
  if (samples->empty()) return;
  double p50 = bench::Percentile(samples, 0.50);
  double p95 = bench::Percentile(samples, 0.95);
  double p99 = bench::Percentile(samples, 0.99);
  double max = samples->back();  // sorted by Percentile
  std::printf(
      "  %-8s %8zu ops  p50 %8.1f us  p95 %8.1f us  p99 %8.1f us  "
      "max %8.1f us  %10.0f ops/s\n",
      name, samples->size(), p50, p95, p99, max,
      static_cast<double>(samples->size()) / seconds);
}

/// One client-vs-server percentile comparison row. Client times include
/// the loopback round trip; server times include queue wait — over a
/// closed loop on loopback the two agree closely, and a divergence
/// means one side's histogram math is wrong.
void PrintServerRow(const char* label, const obs::Snapshot& scrape,
                    const std::string& op, std::vector<double>* client_us) {
  auto it = scrape.histograms.find("laxml_server_op_us{op=\"" + op + "\"}");
  const obs::HistogramSnapshot server =
      it == scrape.histograms.end() ? obs::HistogramSnapshot{} : it->second;
  double sp50 = server.Percentile(0.50);
  double sp95 = server.Percentile(0.95);
  double sp99 = server.Percentile(0.99);
  double cp50 = bench::Percentile(client_us, 0.50);
  double cp95 = bench::Percentile(client_us, 0.95);
  double cp99 = bench::Percentile(client_us, 0.99);
  auto pct = [](double server, double client) {
    return client > 0.0 ? 100.0 * (server - client) / client : 0.0;
  };
  std::printf(
      "  %-8s p50 %8.1f us (client %8.1f, %+5.1f%%)  "
      "p95 %8.1f us (client %8.1f, %+5.1f%%)  "
      "p99 %8.1f us (client %8.1f, %+5.1f%%)\n",
      label, sp50, cp50, pct(sp50, cp50), sp95, cp95, pct(sp95, cp95),
      sp99, cp99, pct(sp99, cp99));
}

TokenSequence ItemFragment(uint64_t n) {
  return SequenceBuilder()
      .BeginElement("item")
      .Attribute("n", std::to_string(n))
      .Text("payload-" + std::to_string(n))
      .End()
      .Build();
}

/// --overload: unloaded baseline vs 4x-saturation closed loop against
/// a server whose queue is bounded at num_workers. The fleet runs with
/// retry_later_attempts=0 so every shed is visible to the measurement
/// instead of being absorbed by client backoff.
int RunOverloadBench(long server_threads, long ops_per_client,
                     long overload_secs, const std::string& json_path) {
  auto store = Store::OpenInMemory(StoreOptions{});
  if (!store.ok()) {
    std::fprintf(stderr, "open store: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  ServerOptions server_options;
  server_options.num_workers = static_cast<int>(server_threads);
  server_options.max_queue = static_cast<size_t>(server_threads);
  auto server = Server::Start(std::move(store).value(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "start server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const uint16_t port = (*server)->port();
  // Saturation concurrency is workers + queue slots; beyond that every
  // arrival is a shed verdict. 4x that is the torture point.
  const long fleet = 4 * (server_threads +
                          static_cast<long>(server_options.max_queue));
  std::printf(
      "bench_server --overload: %ld workers, queue %zu, fleet %ld "
      "(4x saturation), loopback port %u\n",
      server_threads, server_options.max_queue, fleet, port);

  // Shared read-only working set, populated unloaded. The measured op
  // is a whole-subtree read of this root: a service-time-dominated
  // request, so the accepted-latency comparison measures queue wait
  // (what admission control bounds) rather than loopback scheduling
  // noise on sub-microsecond ops.
  const uint64_t kItems = 256;
  NodeId root = 0;
  {
    auto setup = net::Client::Connect("127.0.0.1", port);
    if (!setup.ok()) {
      std::fprintf(stderr, "setup connect: %s\n",
                   setup.status().ToString().c_str());
      return 1;
    }
    auto root_id = (*setup)->InsertTopLevel(
        SequenceBuilder().BeginElement("overload").End().Build());
    if (!root_id.ok()) {
      std::fprintf(stderr, "setup root: %s\n",
                   root_id.status().ToString().c_str());
      return 1;
    }
    root = *root_id;
    for (uint64_t n = 0; n < kItems; ++n) {
      auto id = (*setup)->InsertIntoLast(*root_id, ItemFragment(n));
      if (!id.ok()) {
        std::fprintf(stderr, "setup insert: %s\n",
                     id.status().ToString().c_str());
        return 1;
      }
    }
  }

  // Baseline: one closed-loop reader with the server to itself.
  std::vector<double> baseline_us;
  {
    auto client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "baseline connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    for (long op = 0; op < ops_per_client; ++op) {
      bench::Timer t;
      auto tokens = (*client)->Read(root);
      if (!tokens.ok()) {
        std::fprintf(stderr, "baseline read: %s\n",
                     tokens.status().ToString().c_str());
        return 1;
      }
      baseline_us.push_back(t.Seconds() * 1e6);
    }
  }

  // Overload: the fleet hammers the same working set until told to
  // stop. Sheds are surfaced (retry_later_attempts=0) so accepted
  // latency samples never include retry backoff; the bench then backs
  // off briefly itself, as a well-behaved client would — the fleet
  // size, not a shed-spin storm, is what holds the load at 4x.
  std::vector<std::vector<double>> accepted(static_cast<size_t>(fleet));
  std::atomic<uint64_t> sheds{0};
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  bench::Timer phase;
  {
    std::vector<std::thread> threads;
    for (long c = 0; c < fleet; ++c) {
      threads.emplace_back([&, c] {
        net::ClientOptions co;
        co.retry_later_attempts = 0;
        auto client = net::Client::Connect("127.0.0.1", port, co);
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        Random rng(static_cast<uint32_t>(101 + c));
        std::vector<double>& mine = accepted[static_cast<size_t>(c)];
        while (!stop.load(std::memory_order_relaxed)) {
          bench::Timer t;
          auto tokens = (*client)->Read(root);
          if (tokens.ok()) {
            mine.push_back(t.Seconds() * 1e6);
          } else if (tokens.status().IsRetryLater()) {
            sheds.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(
                std::chrono::microseconds(2000 + rng.Uniform(6000)));
          } else {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::seconds(overload_secs));
    stop.store(true);
    for (std::thread& t : threads) t.join();
  }
  double seconds = phase.Seconds();
  if (failures.load() != 0) {
    std::fprintf(stderr, "bench_server --overload: %d client failures\n",
                 failures.load());
    return 1;
  }

  std::vector<double> accepted_us;
  for (std::vector<double>& s : accepted) {
    accepted_us.insert(accepted_us.end(), s.begin(), s.end());
  }
  if (accepted_us.empty() || sheds.load() == 0) {
    std::fprintf(stderr,
                 "bench_server --overload: degenerate run (%zu accepted, "
                 "%llu shed) — not overloaded\n",
                 accepted_us.size(),
                 static_cast<unsigned long long>(sheds.load()));
    return 1;
  }

  double base_p50 = bench::Percentile(&baseline_us, 0.50);
  double base_p99 = bench::Percentile(&baseline_us, 0.99);
  double over_p50 = bench::Percentile(&accepted_us, 0.50);
  double over_p99 = bench::Percentile(&accepted_us, 0.99);
  double ratio = base_p99 > 0.0 ? over_p99 / base_p99 : 0.0;
  const uint64_t shed_total = sheds.load();
  double shed_pct = 100.0 * static_cast<double>(shed_total) /
                    static_cast<double>(shed_total + accepted_us.size());
  std::printf("baseline (1 client):  p50 %8.1f us  p99 %8.1f us  (%zu ops)\n",
              base_p50, base_p99, baseline_us.size());
  std::printf(
      "overload (%ld clients): p50 %8.1f us  p99 %8.1f us  "
      "(%zu accepted in %.2fs = %.0f ops/s)\n",
      fleet, over_p50, over_p99, accepted_us.size(), seconds,
      static_cast<double>(accepted_us.size()) / seconds);
  std::printf(
      "shed: %llu (%.1f%% of offered), accepted p99 = %.2fx unloaded "
      "baseline %s\n",
      static_cast<unsigned long long>(shed_total), shed_pct, ratio,
      ratio <= 2.0 ? "(within 2x)" : "(EXCEEDS 2x)");

  if (!json_path.empty()) {
    bench::JsonReport report("bench_server");
    report.AddMeta("mode", "overload");
    report.AddMeta("workers", std::to_string(server_threads));
    report.AddMeta("max_queue",
                   std::to_string(server_options.max_queue));
    report.AddMeta("fleet", std::to_string(fleet));
    report.AddMeta("shed_total", std::to_string(shed_total));
    {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", ratio);
      report.AddMeta("accepted_p99_over_baseline_p99", buf);
      std::snprintf(buf, sizeof(buf), "%.1f", shed_pct);
      report.AddMeta("shed_pct_of_offered", buf);
    }
    report.AddRow("baseline_read", 1, &baseline_us, seconds);
    report.AddRow("overload_accepted_read", fleet, &accepted_us, seconds);
    report.AddThroughputRow("overload_shed", fleet, shed_total, seconds);
    if (!report.WriteTo(json_path)) return 1;
  }

  (*server)->Shutdown();
  return ratio <= 2.0 ? 0 : 1;
}

}  // namespace
}  // namespace laxml

int main(int argc, char** argv) {
  using namespace laxml;

  long clients = 4;
  long ops_per_client = 2000;
  long server_threads = 4;
  long batch_size = 64;
  bool sync_commits = false;
  bool sync_every = false;
  long read_pct = -1;  // <0 = classic 50/40/10 mix
  double zipf_s = 0.0;
  bool overload = false;
  long overload_secs = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    auto number = [&](const char* flag) -> long {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return std::strtol(argv[++i], nullptr, 10);
    };
    auto text = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--clients") == 0) {
      clients = number("--clients");
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      ops_per_client = number("--ops");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      server_threads = number("--threads");
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch_size = number("--batch");
    } else if (std::strcmp(argv[i], "--sync") == 0) {
      sync_commits = true;
    } else if (std::strcmp(argv[i], "--sync-every") == 0) {
      sync_commits = true;
      sync_every = true;
    } else if (std::strcmp(argv[i], "--read-pct") == 0) {
      read_pct = number("--read-pct");
    } else if (std::strcmp(argv[i], "--zipf") == 0) {
      zipf_s = std::strtod(text("--zipf").c_str(), nullptr);
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--overload-secs") == 0) {
      overload_secs = number("--overload-secs");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = text("--json");
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (clients < 1 || ops_per_client < 1 || server_threads < 1 ||
      batch_size < 1 || read_pct > 100 || overload_secs < 1) {
    std::fprintf(stderr, "flag out of range\n");
    return 2;
  }
  if (overload) {
    return RunOverloadBench(server_threads, ops_per_client, overload_secs,
                            json_path);
  }

  // --sync runs against a real file so fdatasync means something; the
  // group-commit sequencer is what keeps N clients from paying N syncs.
  std::unique_ptr<bench::TempDb> db;
  Result<std::unique_ptr<Store>> store = Status::Aborted("unopened");
  if (sync_commits) {
    db = std::make_unique<bench::TempDb>("server_sync");
    StoreOptions options;
    options.enable_wal = true;
    options.wal_sync = sync_every ? WalSyncMode::kEveryCommit
                                  : WalSyncMode::kGroupCommit;
    store = Store::Open(db->path(), options);
  } else {
    store = Store::OpenInMemory(StoreOptions{});
  }
  if (!store.ok()) {
    std::fprintf(stderr, "open store: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  ServerOptions server_options;
  server_options.num_workers = static_cast<int>(server_threads);
  auto server = Server::Start(std::move(store).value(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "start server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const uint16_t port = (*server)->port();
  std::printf(
      "bench_server: %ld clients x %ld ops, %ld server threads, "
      "loopback port %u%s\n",
      clients, ops_per_client, server_threads, port,
      !sync_commits            ? ""
      : sync_every             ? ", synced commits (fsync per commit)"
                               : ", synced commits (group commit)");
  if (read_pct >= 0) {
    std::printf("  workload: %ld%% reads, %ld%% inserts, zipf s=%.2f\n",
                read_pct, 100 - read_pct, zipf_s);
  }

  // ------------------------------------------------------------------
  // Phase 1: closed-loop workload, one connection and one private
  // subtree per client. Default mix: 50% insert, 40% read, 10% xpath;
  // --read-pct replaces it with reads over a pre-populated zipf-skewed
  // working set.
  const long prepop = read_pct >= 0
                          ? std::min<long>(512, std::max<long>(ops_per_client, 1))
                          : 0;
  std::vector<OpSamples> samples(static_cast<size_t>(clients));
  std::atomic<int> failures{0};
  bench::Timer phase1;
  {
    std::vector<std::thread> threads;
    for (long c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        OpSamples& mine = samples[static_cast<size_t>(c)];
        auto client = net::Client::Connect("127.0.0.1", port);
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        TokenSequence root = SequenceBuilder()
                                 .BeginElement("client-" + std::to_string(c))
                                 .End()
                                 .Build();
        auto root_id = (*client)->InsertTopLevel(root);
        if (!root_id.ok()) {
          failures.fetch_add(1);
          return;
        }
        std::vector<NodeId> my_nodes;
        // Untimed pre-population (read-pct mode): the read working set.
        for (long p = 0; p < prepop; ++p) {
          auto id = (*client)->InsertIntoLast(
              *root_id, ItemFragment(static_cast<uint64_t>(p)));
          if (!id.ok()) {
            failures.fetch_add(1);
            return;
          }
          my_nodes.push_back(*id);
        }
        Random rng(static_cast<uint32_t>(7 + c));
        ZipfGenerator zipf(static_cast<uint64_t>(std::max<long>(prepop, 1)),
                           zipf_s, static_cast<uint64_t>(31 + c));
        for (long op = 0; op < ops_per_client; ++op) {
          uint32_t dice = rng.Uniform(100);
          bench::Timer t;
          const bool do_read =
              read_pct >= 0
                  ? (dice < static_cast<uint32_t>(read_pct) &&
                     !my_nodes.empty())
                  : (dice >= 50 && dice < 90 && !my_nodes.empty());
          const bool do_xpath =
              read_pct < 0 && dice >= 90 && !my_nodes.empty();
          if (do_read) {
            NodeId target =
                read_pct >= 0
                    ? my_nodes[zipf.Next() % my_nodes.size()]
                    : my_nodes[rng.Uniform(my_nodes.size())];
            auto tokens = (*client)->Read(target);
            if (!tokens.ok()) {
              failures.fetch_add(1);
              return;
            }
            mine.read_us.push_back(t.Seconds() * 1e6);
          } else if (do_xpath) {
            auto ids = (*client)->XPath("/client-" + std::to_string(c) +
                                        "/item");
            if (!ids.ok()) {
              failures.fetch_add(1);
              return;
            }
            mine.xpath_us.push_back(t.Seconds() * 1e6);
          } else {
            auto id = (*client)->InsertIntoLast(
                *root_id, ItemFragment(static_cast<uint64_t>(op)));
            if (!id.ok()) {
              failures.fetch_add(1);
              return;
            }
            my_nodes.push_back(*id);
            mine.insert_us.push_back(t.Seconds() * 1e6);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  double phase1_seconds = phase1.Seconds();
  if (failures.load() != 0) {
    std::fprintf(stderr, "bench_server: %d client failures\n",
                 failures.load());
    return 1;
  }

  OpSamples merged;
  for (OpSamples& s : samples) {
    merged.insert_us.insert(merged.insert_us.end(), s.insert_us.begin(),
                            s.insert_us.end());
    merged.read_us.insert(merged.read_us.end(), s.read_us.begin(),
                          s.read_us.end());
    merged.xpath_us.insert(merged.xpath_us.end(), s.xpath_us.begin(),
                           s.xpath_us.end());
  }
  const size_t total_ops = merged.insert_us.size() + merged.read_us.size() +
                           merged.xpath_us.size();
  std::printf("phase 1: closed-loop mixed workload, %.2fs\n",
              phase1_seconds);
  PrintRow("insert", &merged.insert_us, phase1_seconds);
  PrintRow("read", &merged.read_us, phase1_seconds);
  PrintRow("xpath", &merged.xpath_us, phase1_seconds);
  std::printf("  aggregate %zu ops in %.2fs = %.0f ops/s\n", total_ops,
              phase1_seconds,
              static_cast<double>(total_ops) / phase1_seconds);

  bench::JsonReport report("bench_server");
  {
    char extra[128];
    std::snprintf(extra, sizeof(extra),
                  "\"sync\": %s, \"sync_mode\": \"%s\", \"zipf\": %.2f, "
                  "\"read_pct\": %ld, ",
                  sync_commits ? "true" : "false",
                  !sync_commits ? "none"
                  : sync_every  ? "every-commit"
                                : "group-commit",
                  zipf_s, read_pct);
    report.AddRow("insert", clients, &merged.insert_us, phase1_seconds,
                  extra);
    report.AddRow("read", clients, &merged.read_us, phase1_seconds, extra);
    report.AddRow("xpath", clients, &merged.xpath_us, phase1_seconds,
                  extra);
  }

  // ------------------------------------------------------------------
  // Server-side percentiles (kGetMetrics) vs the client-side samples
  // just measured — scraped before phase 2 so both sides saw the same
  // requests. The server aggregates in 64 log2 buckets; agreement here
  // validates the histogram percentile math against full-sample sorting.
  {
    auto client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "metrics connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    auto prom = (*client)->GetMetrics(net::MetricsFormat::kPrometheus);
    if (!prom.ok()) {
      std::fprintf(stderr, "get metrics: %s\n",
                   prom.status().ToString().c_str());
      return 1;
    }
    const obs::Snapshot scrape = obs::ParsePrometheus(*prom);
    std::printf("server-side latency (kGetMetrics) vs client-side:\n");
    PrintServerRow("insert", scrape, "INSERT_INTO_LAST", &merged.insert_us);
    PrintServerRow("read", scrape, "READ_NODE", &merged.read_us);
    PrintServerRow("xpath", scrape, "XPATH", &merged.xpath_us);
    if (sync_commits) {
      auto counter = [&scrape](const std::string& name) {
        auto c = scrape.counters.find(name);
        return c == scrape.counters.end() ? 0.0
                                          : static_cast<double>(c->second);
      };
      double appends = counter("laxml_wal_appends_total");
      double syncs = counter("laxml_wal_syncs_total");
      double piggy = counter("laxml_wal_group_commit_piggybacked_total");
      std::printf(
          "group commit: %.0f records / %.0f fsyncs = %.1f records/fsync, "
          "%.0f piggybacked commits\n",
          appends, syncs, syncs > 0 ? appends / syncs : 0, piggy);
    }
  }

  // ------------------------------------------------------------------
  // Phase 2: pipelined batch inserts vs the closed-loop baseline —
  // the round trip amortization CallBatch exists for.
  {
    auto client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "phase 2 connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    TokenSequence root =
        SequenceBuilder().BeginElement("batch-root").End().Build();
    auto root_id = (*client)->InsertTopLevel(root);
    if (!root_id.ok()) {
      std::fprintf(stderr, "phase 2 root insert: %s\n",
                   root_id.status().ToString().c_str());
      return 1;
    }
    const long rounds = std::max(1L, ops_per_client / batch_size);
    bench::Timer t;
    for (long r = 0; r < rounds; ++r) {
      std::vector<net::Request> batch;
      batch.reserve(static_cast<size_t>(batch_size));
      for (long b = 0; b < batch_size; ++b) {
        net::Request req;
        req.op = net::OpCode::kInsertIntoLast;
        req.target = *root_id;
        req.data = ItemFragment(static_cast<uint64_t>(r * batch_size + b));
        batch.push_back(std::move(req));
      }
      auto responses = (*client)->CallBatch(std::move(batch));
      if (!responses.ok()) {
        std::fprintf(stderr, "phase 2 batch: %s\n",
                     responses.status().ToString().c_str());
        return 1;
      }
      for (const net::Response& resp : *responses) {
        if (!resp.status.ok()) {
          std::fprintf(stderr, "phase 2 op: %s\n",
                       resp.status.ToString().c_str());
          return 1;
        }
      }
    }
    double seconds = t.Seconds();
    const long batched = rounds * batch_size;
    std::printf(
        "phase 2: pipelined inserts, batch=%ld: %ld ops in %.2fs = "
        "%.0f ops/s\n",
        batch_size, batched, seconds,
        static_cast<double>(batched) / seconds);
    report.AddThroughputRow("batch_insert", clients,
                            static_cast<uint64_t>(batched), seconds);
  }

  if (!json_path.empty() && !report.WriteTo(json_path)) return 1;

  (*server)->Shutdown();
  return 0;
}
