// laxml_server: the laxml store served over TCP.
//
//   laxml_server --db store.db [--port N] [--threads N] ...
//
// Owns a (file-backed or in-memory) store and serves the wire protocol
// (src/net/wire.h) until SIGINT/SIGTERM, then shuts down gracefully:
// drains in-flight requests, flushes responses, syncs the store so the
// on-disk image is a clean checkpoint (laxml_fsck-able), prints the
// final metrics table (what `laxml_cli metrics` shows), and exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/server.h"
#include "store/store.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump_trace = 0;

void HandleSignal(int) { g_stop = 1; }
void HandleDumpTrace(int) { g_dump_trace = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--db FILE | --in-memory) [options]\n"
      "\n"
      "Serves a laxml store over TCP (see src/net/wire.h for the\n"
      "protocol). SIGINT/SIGTERM shut down gracefully: in-flight\n"
      "requests drain, the store is synced, exit code 0.\n"
      "\n"
      "options:\n"
      "  --db FILE         file-backed store (created when absent)\n"
      "  --in-memory       volatile store (testing/benching)\n"
      "  --host ADDR       bind address (default 127.0.0.1; the\n"
      "                    protocol has no auth — widen deliberately)\n"
      "  --port N          TCP port (default 4891; 0 = ephemeral)\n"
      "  --port-file FILE  write the bound port to FILE (scripts use\n"
      "                    this with --port 0)\n"
      "  --threads N       worker threads (default 4)\n"
      "  --wal             enable write-ahead logging (file-backed)\n"
      "  --sync-commits    fdatasync every commit through the group\n"
      "                    commit sequencer (implies --wal; concurrent\n"
      "                    committers share one fsync)\n"
      "  --pool-frames N   buffer pool frames (default 4096)\n"
      "  --max-queue N     admission cap: requests decoded and not yet\n"
      "                    answered, across all connections; excess is\n"
      "                    shed with kRetryLater before touching the\n"
      "                    store (default 1024, 0 = unbounded)\n"
      "  --request-deadline-ms N\n"
      "                    default per-request budget for requests that\n"
      "                    carry no deadline on the wire; expired ones\n"
      "                    are answered DeadlineExceeded without\n"
      "                    touching the store (default 0 = none)\n"
      "  --write-timeout-ms N\n"
      "                    reap a connection whose responses make no\n"
      "                    write progress for N ms (default 10000,\n"
      "                    0 = never)\n"
      "  --idle-timeout-s N\n"
      "                    reap a connection with nothing in flight and\n"
      "                    no reads for N seconds (slowloris guard,\n"
      "                    default 0 = never)\n"
      "  --drain-timeout-s N\n"
      "                    hard cap on the graceful-shutdown drain;\n"
      "                    when it passes, remaining connections close\n"
      "                    with whatever has flushed (default 5)\n"
      "  --slow-op-us N    log any request served in >= N microseconds\n"
      "  --slow-log FILE   append slow ops (same threshold) as JSONL —\n"
      "                    query, plan, resource counters, trace id\n"
      "  --trace-out FILE  write the engine trace (binary; render with\n"
      "                    laxml_trace) at shutdown and on SIGUSR1\n"
      "  -h, --help        this message\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  std::string host = "127.0.0.1";
  std::string port_file;
  bool in_memory = false;
  bool enable_wal = false;
  bool sync_commits = false;
  long port = 4891;
  long threads = 4;
  long pool_frames = 4096;
  long max_queue = 1024;
  long request_deadline_ms = 0;
  long write_timeout_ms = 10000;
  long idle_timeout_s = 0;
  long drain_timeout_s = 5;
  long slow_op_us = 0;
  std::string slow_log_path;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_number = [&](const char* flag, long min_value) -> long {
      char* end = nullptr;
      const char* text = next_value(flag);
      long v = std::strtol(text, &end, 10);
      if (end == nullptr || *end != '\0' || v < min_value) {
        std::fprintf(stderr, "%s: bad value for %s: '%s'\n", argv[0], flag,
                     text);
        std::exit(2);
      }
      return v;
    };
    if (std::strcmp(arg, "--db") == 0) {
      db_path = next_value(arg);
    } else if (std::strcmp(arg, "--in-memory") == 0) {
      in_memory = true;
    } else if (std::strcmp(arg, "--host") == 0) {
      host = next_value(arg);
    } else if (std::strcmp(arg, "--port") == 0) {
      port = next_number(arg, 0);
    } else if (std::strcmp(arg, "--port-file") == 0) {
      port_file = next_value(arg);
    } else if (std::strcmp(arg, "--threads") == 0) {
      threads = next_number(arg, 1);
    } else if (std::strcmp(arg, "--wal") == 0) {
      enable_wal = true;
    } else if (std::strcmp(arg, "--sync-commits") == 0) {
      sync_commits = true;
      enable_wal = true;
    } else if (std::strcmp(arg, "--pool-frames") == 0) {
      pool_frames = next_number(arg, 8);
    } else if (std::strcmp(arg, "--max-queue") == 0) {
      max_queue = next_number(arg, 0);
    } else if (std::strcmp(arg, "--request-deadline-ms") == 0) {
      request_deadline_ms = next_number(arg, 0);
    } else if (std::strcmp(arg, "--write-timeout-ms") == 0) {
      write_timeout_ms = next_number(arg, 0);
    } else if (std::strcmp(arg, "--idle-timeout-s") == 0) {
      idle_timeout_s = next_number(arg, 0);
    } else if (std::strcmp(arg, "--drain-timeout-s") == 0) {
      drain_timeout_s = next_number(arg, 0);
    } else if (std::strcmp(arg, "--slow-op-us") == 0) {
      slow_op_us = next_number(arg, 0);
    } else if (std::strcmp(arg, "--slow-log") == 0) {
      slow_log_path = next_value(arg);
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      trace_out = next_value(arg);
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
      Usage(argv[0]);
      return 2;
    }
  }
  if (db_path.empty() == !in_memory) {
    std::fprintf(stderr, "%s: exactly one of --db / --in-memory required\n",
                 argv[0]);
    Usage(argv[0]);
    return 2;
  }
  if (port > 65535) {
    std::fprintf(stderr, "%s: port out of range\n", argv[0]);
    return 2;
  }

  laxml::StoreOptions store_options;
  store_options.pager.pool_frames = static_cast<size_t>(pool_frames);
  store_options.enable_wal = enable_wal && !in_memory;
  if (sync_commits) {
    if (in_memory) {
      std::fprintf(stderr, "%s: --sync-commits needs a file-backed store\n",
                   argv[0]);
      return 2;
    }
    store_options.wal_sync = laxml::WalSyncMode::kGroupCommit;
  }
  auto store = in_memory ? laxml::Store::OpenInMemory(store_options)
                         : laxml::Store::Open(db_path, store_options);
  if (!store.ok()) {
    std::fprintf(stderr, "%s: open store: %s\n", argv[0],
                 store.status().ToString().c_str());
    return 1;
  }

  laxml::ServerOptions server_options;
  server_options.host = host;
  server_options.port = static_cast<uint16_t>(port);
  server_options.num_workers = static_cast<int>(threads);
  server_options.max_queue = static_cast<size_t>(max_queue);
  server_options.request_deadline_ms =
      static_cast<uint64_t>(request_deadline_ms);
  server_options.write_timeout_ms = static_cast<int>(write_timeout_ms);
  server_options.idle_timeout_s = static_cast<int>(idle_timeout_s);
  server_options.drain_flush_timeout_ms =
      static_cast<int>(drain_timeout_s * 1000);
  server_options.slow_op_micros = static_cast<uint64_t>(slow_op_us);
  server_options.slow_log_path = slow_log_path;
  if (!slow_log_path.empty() && slow_op_us == 0) {
    std::fprintf(stderr, "%s: --slow-log needs --slow-op-us > 0\n",
                 argv[0]);
    return 2;
  }
  auto server =
      laxml::Server::Start(std::move(store).value(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s: start server: %s\n", argv[0],
                 server.status().ToString().c_str());
    return 1;
  }

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write port file '%s'\n", argv[0],
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", (*server)->port());
    std::fclose(f);
  }
  std::printf("laxml_server: listening on %s:%u (%s, %ld threads)\n",
              host.c_str(), (*server)->port(),
              in_memory ? "in-memory" : db_path.c_str(), threads);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  if (!trace_out.empty()) std::signal(SIGUSR1, HandleDumpTrace);
  while (g_stop == 0) {
    timespec nap{0, 50'000'000};  // 50ms
    ::nanosleep(&nap, nullptr);
    if (g_dump_trace != 0) {
      g_dump_trace = 0;
      laxml::Status st = laxml::obs::Tracer::Global().DumpBinary(trace_out);
      if (st.ok()) {
        std::printf("laxml_server: trace written to %s\n",
                    trace_out.c_str());
      } else {
        std::fprintf(stderr, "%s: trace dump: %s\n", argv[0],
                     st.ToString().c_str());
      }
      std::fflush(stdout);
    }
  }

  std::printf("laxml_server: shutting down\n");
  std::fflush(stdout);
  (*server)->Shutdown();
  laxml::obs::Snapshot final_metrics;
  (*server)->CollectMetrics(&final_metrics);
  laxml::Status sync =
      (*server)->shared_store()->UnsafeStore()->Sync();
  if (!sync.ok() && !in_memory) {
    std::fprintf(stderr, "%s: final sync: %s\n", argv[0],
                 sync.ToString().c_str());
    return 1;
  }
  if (!trace_out.empty()) {
    laxml::Status st = laxml::obs::Tracer::Global().DumpBinary(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: trace dump: %s\n", argv[0],
                   st.ToString().c_str());
    }
  }
  std::printf("%s", laxml::obs::RenderTable(final_metrics).c_str());
  return 0;
}
