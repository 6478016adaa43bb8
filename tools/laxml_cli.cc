// laxml_cli: command-line client for a running laxml_server.
//
//   laxml_cli [--host H] [--port N] <command ...>     one command
//   laxml_cli [--host H] [--port N]                   script from stdin
//
// Script mode reads one command per line ('#' starts a comment). XML
// fragments are parsed client-side into token sequences and travel in
// the binary token codec; reads are serialized back to XML locally —
// the server never sees or produces XML text.
//
// commands:
//   ping
//   load <xml>                   insert fragment at the top level
//   insert-before <id> <xml>     Table-1 update ops
//   insert-after <id> <xml>
//   insert-first <id> <xml>
//   insert-last <id> <xml>
//   replace <id> <xml>
//   replace-content <id> <xml>
//   delete <id>
//   read [id]                    whole store / one subtree, as XML
//   xpath <expr>                 matching node ids
//   explain [--profile] <expr>   the planner's verdict as JSON —
//                                plan kind, per-step index warmth,
//                                eligibility gate; --profile also
//                                executes and appends timing +
//                                resource counters
//   metrics [--prom]             every server + store counter, as a
//                                table or (--prom) Prometheus text
//   check                        run the integrity auditor
//
// Offline mode (no server): with --db PATH the only command is
//
//   laxml_cli --db store.db load --stream <file.xml>
//
// which stream-loads an XML document into a FRESH store file via
// Store::BulkLoad — constant memory regardless of document size. The
// store must not be open elsewhere (bulk load is an initial-ingest
// operation; the server refuses a second opener anyway).
//
// Exit code 0 when every command succeeded, 1 otherwise.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "net/client.h"
#include "obs/trace.h"
#include "store/store.h"
#include "xml/serializer.h"
#include "xml/tokenizer.h"

namespace {

using laxml::net::Client;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port N] [--trace-id N]\n"
               "       [--deadline-ms N] [--trace-out FILE] [command args...]\n"
               "       %s --db STORE load --stream FILE   (offline)\n"
               "With no command, reads one command per line from stdin.\n"
               "Commands: ping, load, insert-before, insert-after,\n"
               "insert-first, insert-last, replace, replace-content,\n"
               "delete, read, xpath, explain [--profile],\n"
               "metrics [--prom], check\n"
               "--trace-id N stamps every request with trace id N (see\n"
               "laxml_trace --trace-id); --trace-out FILE dumps this\n"
               "client's own spans at exit for merging with the\n"
               "server's dump. --deadline-ms N gives every request an\n"
               "N ms budget: the server rejects it with DeadlineExceeded\n"
               "once the budget is spent, before touching the store.\n",
               argv0, argv0);
}

/// One actionable line for operational failures instead of a raw status
/// dump — the distinction a scripting user needs is "my command was
/// wrong" vs "the server is down/overloaded, retry or fix the server".
std::string FriendlyError(const laxml::Status& status,
                          const std::string& host, long port) {
  const std::string where = host + ":" + std::to_string(port);
  if (status.IsRetryLater()) {
    return "server at " + where +
           " is overloaded and shed the request; retry shortly or raise "
           "its --max-queue";
  }
  if (status.IsDeadlineExceeded()) {
    return "request deadline expired before the server ran it; raise "
           "--deadline-ms or retry when the server is less loaded";
  }
  if (status.IsAborted()) {
    return "timed out waiting for " + where +
           "; the server is unreachable or too slow — check it is "
           "running and not overloaded";
  }
  if (status.IsIOError()) {
    return "cannot talk to laxml_server at " + where +
           "; check it is running and that --host/--port are right";
  }
  return status.ToString();
}

bool ParseId(const std::string& text, laxml::NodeId* id) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v == 0) return false;
  *id = v;
  return true;
}

/// Splits "cmd rest", then "cmd arg rest" as each command needs.
struct CommandLine {
  std::string verb;
  std::string arg1;  ///< First word after the verb ("" when absent).
  std::string rest;  ///< Everything after arg1 (XML / expression text).
};

CommandLine Split(const std::string& line) {
  CommandLine cmd;
  std::istringstream in(line);
  in >> cmd.verb >> cmd.arg1;
  std::getline(in, cmd.rest);
  while (!cmd.rest.empty() && cmd.rest.front() == ' ') {
    cmd.rest.erase(cmd.rest.begin());
  }
  return cmd;
}

/// Runs one command; prints its outcome; false on failure.
bool RunCommand(Client* client, const std::string& line,
                const std::string& host, long port) {
  CommandLine cmd = Split(line);
  auto fragment = [&](const std::string& xml)
      -> laxml::Result<laxml::TokenSequence> {
    return laxml::ParseFragment(xml);
  };
  auto fail = [&](const laxml::Status& status) {
    std::printf("error: %s\n", FriendlyError(status, host, port).c_str());
    return false;
  };
  auto print_id = [&](laxml::Result<laxml::NodeId> r) {
    if (!r.ok()) return fail(r.status());
    std::printf("id %llu\n", static_cast<unsigned long long>(*r));
    return true;
  };

  if (cmd.verb == "ping") {
    laxml::Status st = client->Ping();
    if (!st.ok()) return fail(st);
    std::printf("pong\n");
    return true;
  }
  if (cmd.verb == "load") {
    std::string xml = cmd.arg1;
    if (!cmd.rest.empty()) xml += " " + cmd.rest;
    auto tokens = fragment(xml);
    if (!tokens.ok()) return fail(tokens.status());
    return print_id(client->InsertTopLevel(*tokens));
  }
  if (cmd.verb == "insert-before" || cmd.verb == "insert-after" ||
      cmd.verb == "insert-first" || cmd.verb == "insert-last" ||
      cmd.verb == "replace" || cmd.verb == "replace-content") {
    laxml::NodeId id;
    if (!ParseId(cmd.arg1, &id)) {
      std::printf("error: '%s' needs <id> <xml>\n", cmd.verb.c_str());
      return false;
    }
    auto tokens = fragment(cmd.rest);
    if (!tokens.ok()) return fail(tokens.status());
    if (cmd.verb == "insert-before") {
      return print_id(client->InsertBefore(id, *tokens));
    }
    if (cmd.verb == "insert-after") {
      return print_id(client->InsertAfter(id, *tokens));
    }
    if (cmd.verb == "insert-first") {
      return print_id(client->InsertIntoFirst(id, *tokens));
    }
    if (cmd.verb == "insert-last") {
      return print_id(client->InsertIntoLast(id, *tokens));
    }
    if (cmd.verb == "replace") {
      return print_id(client->ReplaceNode(id, *tokens));
    }
    return print_id(client->ReplaceContent(id, *tokens));
  }
  if (cmd.verb == "delete") {
    laxml::NodeId id;
    if (!ParseId(cmd.arg1, &id)) {
      std::printf("error: 'delete' needs <id>\n");
      return false;
    }
    laxml::Status st = client->DeleteNode(id);
    if (!st.ok()) return fail(st);
    std::printf("deleted %llu\n", static_cast<unsigned long long>(id));
    return true;
  }
  if (cmd.verb == "read") {
    laxml::NodeId id = laxml::kInvalidNodeId;
    if (!cmd.arg1.empty() && !ParseId(cmd.arg1, &id)) {
      std::printf("error: 'read' takes an optional numeric <id>\n");
      return false;
    }
    auto tokens = cmd.arg1.empty() ? client->Read() : client->Read(id);
    if (!tokens.ok()) return fail(tokens.status());
    auto xml = laxml::SerializeTokens(*tokens);
    if (!xml.ok()) return fail(xml.status());
    std::printf("%s\n", xml->c_str());
    return true;
  }
  if (cmd.verb == "xpath") {
    std::string expr = cmd.arg1;
    if (!cmd.rest.empty()) expr += " " + cmd.rest;
    auto ids = client->XPath(expr);
    if (!ids.ok()) return fail(ids.status());
    std::printf("%zu node(s):", ids->size());
    for (laxml::NodeId id : *ids) {
      std::printf(" %llu", static_cast<unsigned long long>(id));
    }
    std::printf("\n");
    return true;
  }
  if (cmd.verb == "explain") {
    bool profile = cmd.arg1 == "--profile";
    std::string expr = profile ? cmd.rest : cmd.arg1;
    if (!profile && !cmd.rest.empty()) expr += " " + cmd.rest;
    if (expr.empty()) {
      std::printf("error: 'explain' needs [--profile] <xpath>\n");
      return false;
    }
    auto json = client->Explain(expr, profile);
    if (!json.ok()) return fail(json.status());
    std::printf("%s\n", json->c_str());
    return true;
  }
  if (cmd.verb == "metrics") {
    if (!cmd.arg1.empty() && cmd.arg1 != "--prom") {
      std::printf("error: 'metrics' takes an optional --prom\n");
      return false;
    }
    auto text = client->GetMetrics(
        cmd.arg1 == "--prom" ? laxml::net::MetricsFormat::kPrometheus
                             : laxml::net::MetricsFormat::kTable);
    if (!text.ok()) return fail(text.status());
    std::printf("%s", text->c_str());
    return true;
  }
  if (cmd.verb == "check") {
    laxml::Status st = client->CheckIntegrity();
    if (!st.ok()) return fail(st);
    std::printf("integrity ok\n");
    return true;
  }
  std::printf("error: unknown command '%s'\n", cmd.verb.c_str());
  return false;
}

/// Offline `load --stream FILE`: BulkLoadFile into a fresh store and
/// print the ingest summary (CI greps the bytes_per_token field).
int RunOfflineLoad(const std::string& db, const std::string& file) {
  laxml::StoreOptions options;
  auto store = laxml::Store::Open(db, options);
  if (!store.ok()) {
    std::fprintf(stderr, "laxml_cli: open %s: %s\n", db.c_str(),
                 store.status().ToString().c_str());
    return 1;
  }
  auto stats = (*store)->BulkLoadFile(file);
  if (!stats.ok()) {
    std::fprintf(stderr, "laxml_cli: bulk load: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "bulk-load: bytes=%llu tokens=%llu nodes=%llu ranges=%llu "
      "payload_bytes=%llu dict_symbols=%u bytes_per_token=%.2f\n",
      static_cast<unsigned long long>(stats->xml_bytes),
      static_cast<unsigned long long>(stats->tokens),
      static_cast<unsigned long long>(stats->nodes),
      static_cast<unsigned long long>(stats->ranges),
      static_cast<unsigned long long>(stats->payload_bytes),
      stats->dict_symbols,
      stats->tokens > 0
          ? static_cast<double>(stats->payload_bytes) / stats->tokens
          : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  long port = 4891;
  std::string db;
  unsigned long long trace_id = 0;
  unsigned long long deadline_ms = 0;
  std::string trace_out;
  int i = 1;
  for (; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else if (std::strcmp(arg, "--port") == 0 && i + 1 < argc) {
      char* end = nullptr;
      port = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || port <= 0 || port > 65535) {
        std::fprintf(stderr, "%s: bad port\n", argv[0]);
        return 2;
      }
    } else if (std::strcmp(arg, "--trace-id") == 0 && i + 1 < argc) {
      char* end = nullptr;
      trace_id = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || trace_id == 0) {
        std::fprintf(stderr, "%s: bad --trace-id (nonzero integer)\n",
                     argv[0]);
        return 2;
      }
    } else if (std::strcmp(arg, "--deadline-ms") == 0 && i + 1 < argc) {
      char* end = nullptr;
      deadline_ms = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || deadline_ms == 0) {
        std::fprintf(stderr, "%s: bad --deadline-ms (nonzero integer)\n",
                     argv[0]);
        return 2;
      }
    } else if (std::strcmp(arg, "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(arg, "--db") == 0 && i + 1 < argc) {
      db = argv[++i];
    } else if (std::strcmp(arg, "-h") == 0 || std::strcmp(arg, "--help") == 0) {
      Usage(argv[0]);
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
      Usage(argv[0]);
      return 2;
    } else {
      break;  // start of the command words
    }
  }

  if (!db.empty()) {
    if (i + 2 != argc - 1 || std::strcmp(argv[i], "load") != 0 ||
        std::strcmp(argv[i + 1], "--stream") != 0) {
      std::fprintf(stderr,
                   "%s: --db supports exactly: load --stream <file>\n",
                   argv[0]);
      return 2;
    }
    return RunOfflineLoad(db, argv[i + 2]);
  }

  auto client = Client::Connect(host, static_cast<uint16_t>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 FriendlyError(client.status(), host, port).c_str());
    return 1;
  }
  if (trace_id != 0) client->get()->set_trace_id(trace_id);
  if (deadline_ms != 0) client->get()->set_deadline_ms(deadline_ms);
  auto dump_trace = [&]() {
    if (trace_out.empty()) return;
    laxml::Status st = laxml::obs::Tracer::Global().DumpBinary(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: trace dump: %s\n", argv[0],
                   st.ToString().c_str());
    }
  };

  if (i < argc) {
    std::string line;
    for (; i < argc; ++i) {
      if (!line.empty()) line += " ";
      line += argv[i];
    }
    bool ok = RunCommand(client->get(), line, host, port);
    dump_trace();
    return ok ? 0 : 1;
  }

  bool all_ok = true;
  std::string line;
  while (std::getline(std::cin, line)) {
    // Trim leading whitespace; skip blanks and comments.
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    if (!RunCommand(client->get(), line.substr(start), host, port)) {
      all_ok = false;
    }
  }
  dump_trace();
  return all_ok ? 0 : 1;
}
