// End-to-end tests of the network layer: a real Server on an ephemeral
// loopback port, real Client connections, concurrent clients doing
// mixed work, pipelined batches, errors over the wire, protocol-error
// handling, and graceful shutdown. This is the suite the sanitizer
// presets chew on: the I/O thread, the worker pool, and N client
// threads all run at once.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "exposition_lint.h"
#include "common/slice.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "server/server.h"
#include "store/store.h"
#include "test_util.h"
#include "xml/token_sequence.h"

namespace laxml {
namespace {

std::unique_ptr<Server> MustStartServer(ServerOptions options = {}) {
  auto store = Store::OpenInMemory(StoreOptions{});
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  auto server = Server::Start(std::move(store).value(), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

std::unique_ptr<net::Client> MustConnect(uint16_t port) {
  auto client = net::Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

TokenSequence Item(uint64_t n) {
  return SequenceBuilder()
      .BeginElement("item")
      .Attribute("n", std::to_string(n))
      .Text("payload-" + std::to_string(n))
      .End()
      .Build();
}

TEST(ServerClientTest, BasicOpsRoundTrip) {
  auto server = MustStartServer();
  auto client = MustConnect(server->port());

  ASSERT_LAXML_OK(client->Ping());

  TokenSequence doc = testing::MustFragment("<root><a>1</a></root>");
  ASSERT_OK_AND_ASSIGN(NodeId root, client->InsertTopLevel(doc));

  ASSERT_OK_AND_ASSIGN(TokenSequence back, client->Read(root));
  EXPECT_EQ(back, doc);

  ASSERT_OK_AND_ASSIGN(NodeId b,
                       client->InsertIntoLast(root,
                                              testing::MustFragment(
                                                  "<b>2</b>")));
  ASSERT_OK_AND_ASSIGN(TokenSequence b_back, client->Read(b));
  EXPECT_EQ(b_back, testing::MustFragment("<b>2</b>"));

  ASSERT_OK_AND_ASSIGN(std::vector<NodeId> hits, client->XPath("/root/b"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], b);

  ASSERT_OK_AND_ASSIGN(NodeId replaced,
                       client->ReplaceNode(b, testing::MustFragment(
                                                  "<c>3</c>")));
  ASSERT_OK_AND_ASSIGN(TokenSequence c_back, client->Read(replaced));
  EXPECT_EQ(c_back, testing::MustFragment("<c>3</c>"));

  ASSERT_LAXML_OK(client->DeleteNode(replaced));
  ASSERT_OK_AND_ASSIGN(TokenSequence whole, client->Read());
  EXPECT_EQ(whole, doc);

  ASSERT_OK_AND_ASSIGN(std::string table,
                       client->GetMetrics(net::MetricsFormat::kTable));
  EXPECT_NE(table.find("laxml_server_op_us{op=\"INSERT_TOP_LEVEL\"}"),
            std::string::npos)
      << table;

  ASSERT_LAXML_OK(client->CheckIntegrity());
  server->Shutdown();
}

TEST(ServerClientTest, GetMetricsRoundTripsBothFormats) {
  auto server = MustStartServer();
  auto client = MustConnect(server->port());

  // Serve some traffic so the per-op histograms have samples.
  TokenSequence doc = testing::MustFragment("<m><x>1</x></m>");
  ASSERT_OK_AND_ASSIGN(NodeId root, client->InsertTopLevel(doc));
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(TokenSequence back, client->Read(root));
    EXPECT_EQ(back, doc);
  }

  // Human table: server per-op rows with percentile columns plus the
  // store's metric names.
  ASSERT_OK_AND_ASSIGN(std::string table,
                       client->GetMetrics(net::MetricsFormat::kTable));
  EXPECT_NE(table.find("READ_NODE"), std::string::npos) << table;
  EXPECT_NE(table.find("p99"), std::string::npos) << table;
  EXPECT_NE(table.find("laxml_store_live_nodes"), std::string::npos)
      << table;

  // Prometheus exposition: server op histogram series, engine counters,
  // scrape-time store gauges. Spot-check the line grammar.
  ASSERT_OK_AND_ASSIGN(
      std::string prom,
      client->GetMetrics(net::MetricsFormat::kPrometheus));
  EXPECT_NE(prom.find("laxml_server_op_us_count{op=\"READ_NODE\"} 10"),
            std::string::npos)
      << prom;
  EXPECT_NE(
      prom.find("laxml_server_op_us_bucket{op=\"READ_NODE\",le=\"+Inf\"} 10"),
      std::string::npos);
  EXPECT_NE(prom.find("laxml_server_requests_total"), std::string::npos);
  EXPECT_NE(prom.find("laxml_store_ranges"), std::string::npos);
  size_t pos = 0;
  while (pos < prom.size()) {
    size_t eol = prom.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    std::string line = prom.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
  }
  server->Shutdown();
}

TEST(ServerClientTest, PrometheusExpositionPassesLint) {
  // Several opcodes so the op table, the store's structs and its op
  // latency histograms all carry labeled series at once.
  auto server = MustStartServer();
  auto client = MustConnect(server->port());
  ASSERT_OK_AND_ASSIGN(NodeId root,
                       client->InsertTopLevel(testing::MustFragment(
                           "<lint><a>1</a></lint>")));
  ASSERT_OK_AND_ASSIGN(NodeId b,
                       client->InsertIntoLast(root, Item(1)));
  ASSERT_LAXML_OK(client->Read(root).status());
  ASSERT_LAXML_OK(client->XPath("/lint/a").status());
  ASSERT_LAXML_OK(client->DeleteNode(b));

  ASSERT_OK_AND_ASSIGN(
      std::string prom,
      client->GetMetrics(net::MetricsFormat::kPrometheus));
  const std::vector<std::string> errors = testing::LintExposition(prom);
  for (const std::string& error : errors) ADD_FAILURE() << error;
  EXPECT_NE(prom.find("# TYPE laxml_bufferpool_hits_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE laxml_server_requests_total counter"),
            std::string::npos);
  server->Shutdown();
}

TEST(ServerClientTest, ErrorsTravelTheWire) {
  auto server = MustStartServer();
  auto client = MustConnect(server->port());

  // Engine errors come back as the same Status the in-process call
  // would produce — and the connection stays usable afterwards.
  Status st = client->DeleteNode(999999);
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();

  auto hits = client->XPath("///[[[");
  EXPECT_TRUE(hits.status().IsParseError()) << hits.status().ToString();

  auto read = client->Read(424242);
  EXPECT_FALSE(read.ok());

  ASSERT_LAXML_OK(client->Ping());
  server->Shutdown();
}

// The wire's mutating opcodes and the WAL's operation codes are one
// table: every Table-1 kind maps to the opcode of the same name and
// back, and no other opcode mutates.
TEST(ServerClientTest, OpCodeTableRoundTripsEveryKind) {
  auto upper_snake = [](std::string camel) {
    std::string out;
    for (char c : camel) {
      if (std::isupper(static_cast<unsigned char>(c))) out += '_';
      out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    return out;
  };
  for (uint8_t v = 0; v < static_cast<uint8_t>(WalOp::kCheckpoint); ++v) {
    const WalOp op = static_cast<WalOp>(v);
    const net::OpCode code = net::OpCodeOf(op);
    EXPECT_EQ(net::MutationOf(code), op) << WalOpName(op);
    EXPECT_EQ(net::OpCodeName(code), upper_snake(WalOpName(op)));
  }
  int mutating = 0;
  for (uint8_t v = 0; v <= net::kMaxOpCode; ++v) {
    const auto code = static_cast<net::OpCode>(v);
    if (std::optional<WalOp> op = net::MutationOf(code)) {
      ++mutating;
      EXPECT_EQ(net::OpCodeOf(*op), code) << net::OpCodeName(code);
    }
  }
  EXPECT_EQ(mutating, 8);
}

// Every mutating opcode reaches the store through the Store::Apply an
// in-process caller uses: for each kind the client's answer (id or
// status) and the document afterwards equal a twin in-memory store's.
TEST(ServerClientTest, MutationsMatchStoreApply) {
  auto server = MustStartServer();
  auto client = MustConnect(server->port());
  ASSERT_OK_AND_ASSIGN(auto twin, Store::OpenInMemory(StoreOptions{}));
  struct Step {
    WalOp op;
    NodeId target;
    const char* xml;
  };
  // root=1 a=2 "1"=3 b=4, then p=5 q=6 f=7 "x"=8 l=9 r=10.
  const Step steps[] = {
      {WalOp::kInsertTopLevel, kInvalidNodeId, "<root><a>1</a><b/></root>"},
      {WalOp::kInsertBefore, 4, "<p/>"},
      {WalOp::kInsertAfter, 4, "<q/>"},
      {WalOp::kInsertIntoFirst, 1, "<f>x</f>"},
      {WalOp::kInsertIntoLast, 1, "<l/>"},
      {WalOp::kReplaceNode, 4, "<r/>"},
      {WalOp::kReplaceContent, 2, ""},
      {WalOp::kDeleteNode, 5, ""},
      // Rejections travel back as the same status.
      {WalOp::kDeleteNode, 999, ""},
      {WalOp::kInsertIntoFirst, 8, "<z/>"},
      {WalOp::kInsertAfter, 1, ""},
  };
  for (const Step& step : steps) {
    SCOPED_TRACE(std::string(WalOpName(step.op)) + " " +
                 std::to_string(step.target));
    const TokenSequence data =
        *step.xml != '\0' ? testing::MustFragment(step.xml) : TokenSequence{};
    Result<NodeId> want = twin->Apply(step.op, step.target, data);
    Result<NodeId> got = client->Apply(step.op, step.target, data);
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    if (want.ok() && got.ok()) {
      EXPECT_EQ(*got, *want);
    }
    ASSERT_OK_AND_ASSIGN(TokenSequence served, client->Read());
    ASSERT_OK_AND_ASSIGN(TokenSequence local, twin->Read());
    EXPECT_EQ(served, local);
  }
  ASSERT_OK_AND_ASSIGN(std::string xml, twin->SerializeToXml());
  EXPECT_EQ(xml, "<root><f>x</f><a/><r/><q/><l/></root>");
  server->Shutdown();
}

TEST(ServerClientTest, MultiClientMixedWorkload) {
  ServerOptions options;
  options.num_workers = 4;
  auto server = MustStartServer(options);
  const uint16_t port = server->port();

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 300;
  std::atomic<int> failures{0};
  // Per client: the expected final subtree, rebuilt locally from the
  // same operation stream the server saw.
  std::vector<TokenSequence> expected(kClients);
  std::vector<NodeId> roots(kClients, kInvalidNodeId);

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = net::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++failures;
        return;
      }
      const std::string name = "client-" + std::to_string(c);
      TokenSequence root =
          SequenceBuilder().BeginElement(name).End().Build();
      auto root_id = (*client)->InsertTopLevel(root);
      if (!root_id.ok()) {
        ++failures;
        return;
      }
      roots[static_cast<size_t>(c)] = *root_id;
      // Local model: the item fragments currently under the root, in
      // document order.
      std::vector<uint64_t> items;
      std::vector<NodeId> item_ids;
      Random rng(static_cast<uint32_t>(100 + c));
      for (int op = 0; op < kOpsPerClient; ++op) {
        uint32_t dice = rng.Uniform(10);
        if (dice < 5 || items.empty()) {
          uint64_t n = static_cast<uint64_t>(op);
          auto id = (*client)->InsertIntoLast(*root_id, Item(n));
          if (!id.ok()) {
            ++failures;
            return;
          }
          items.push_back(n);
          item_ids.push_back(*id);
        } else if (dice < 7) {
          size_t victim = rng.Uniform(items.size());
          if (!(*client)->DeleteNode(item_ids[victim]).ok()) {
            ++failures;
            return;
          }
          items.erase(items.begin() + static_cast<ptrdiff_t>(victim));
          item_ids.erase(item_ids.begin() +
                         static_cast<ptrdiff_t>(victim));
        } else if (dice < 9) {
          size_t pick = rng.Uniform(items.size());
          auto tokens = (*client)->Read(item_ids[pick]);
          if (!tokens.ok() || *tokens != Item(items[pick])) {
            ++failures;
            return;
          }
        } else {
          auto hits = (*client)->XPath("/" + name + "/item");
          if (!hits.ok() || hits->size() != items.size()) {
            ++failures;
            return;
          }
        }
      }
      // Rebuild the expected subtree: <client-c> then each live item.
      TokenSequence& exp = expected[static_cast<size_t>(c)];
      exp = SequenceBuilder().BeginElement(name).End().Build();
      for (uint64_t n : items) {
        TokenSequence item = Item(n);
        exp.insert(exp.end() - 1, item.begin(), item.end());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Verify through the server's own store object: every client's
  // subtree must match its local model exactly, and the whole store
  // must still satisfy every invariant.
  for (int c = 0; c < kClients; ++c) {
    ASSERT_NE(roots[static_cast<size_t>(c)], kInvalidNodeId);
    ASSERT_OK_AND_ASSIGN(
        TokenSequence actual,
        server->shared_store()->Read(roots[static_cast<size_t>(c)]));
    EXPECT_EQ(actual, expected[static_cast<size_t>(c)]) << "client " << c;
  }
  server->Shutdown();
  ASSERT_LAXML_OK(server->shared_store()->UnsafeStore()->CheckIntegrity());

  // The counters saw every op class the workload issued.
  ServerStatsSnapshot stats = server->stats();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_GE(stats.TotalRequests(),
            static_cast<uint64_t>(kClients) * kOpsPerClient);
}

TEST(ServerClientTest, PipelinedBatchPreservesOrder) {
  auto server = MustStartServer();
  auto client = MustConnect(server->port());

  TokenSequence root =
      SequenceBuilder().BeginElement("batch").End().Build();
  ASSERT_OK_AND_ASSIGN(NodeId root_id, client->InsertTopLevel(root));

  constexpr int kBatch = 200;
  std::vector<net::Request> reqs;
  reqs.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    net::Request req;
    req.op = net::OpCode::kInsertIntoLast;
    req.target = root_id;
    req.data = Item(static_cast<uint64_t>(i));
    reqs.push_back(std::move(req));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<net::Response> resps,
                       client->CallBatch(std::move(reqs)));
  ASSERT_EQ(resps.size(), static_cast<size_t>(kBatch));
  for (const net::Response& resp : resps) {
    ASSERT_LAXML_OK(resp.status);
  }
  // Serial per-connection execution means the batch landed in order.
  TokenSequence expected =
      SequenceBuilder().BeginElement("batch").End().Build();
  for (int i = 0; i < kBatch; ++i) {
    TokenSequence item = Item(static_cast<uint64_t>(i));
    expected.insert(expected.end() - 1, item.begin(), item.end());
  }
  ASSERT_OK_AND_ASSIGN(TokenSequence actual, client->Read(root_id));
  EXPECT_EQ(actual, expected);
  server->Shutdown();
}

TEST(ServerClientTest, BatchWithDependentOps) {
  auto server = MustStartServer();
  auto client = MustConnect(server->port());
  ASSERT_OK_AND_ASSIGN(
      NodeId root,
      client->InsertTopLevel(
          SequenceBuilder().BeginElement("d").End().Build()));

  // Insert, delete it, insert again — order matters; out-of-order
  // execution would fail the delete or leave two items.
  ASSERT_OK_AND_ASSIGN(NodeId first, client->InsertIntoLast(root, Item(1)));
  std::vector<net::Request> reqs(3);
  reqs[0].op = net::OpCode::kDeleteNode;
  reqs[0].target = first;
  reqs[1].op = net::OpCode::kInsertIntoLast;
  reqs[1].target = root;
  reqs[1].data = Item(2);
  reqs[2].op = net::OpCode::kReadNode;
  reqs[2].target = root;
  ASSERT_OK_AND_ASSIGN(std::vector<net::Response> resps,
                       client->CallBatch(std::move(reqs)));
  ASSERT_EQ(resps.size(), 3u);
  ASSERT_LAXML_OK(resps[0].status);
  ASSERT_LAXML_OK(resps[1].status);
  ASSERT_LAXML_OK(resps[2].status);
  TokenSequence expected =
      SequenceBuilder().BeginElement("d").End().Build();
  TokenSequence item = Item(2);
  expected.insert(expected.end() - 1, item.begin(), item.end());
  EXPECT_EQ(resps[2].tokens, expected);
  server->Shutdown();
}

TEST(ServerClientTest, ExplainOverTheWire) {
  auto server = MustStartServer();
  auto client = MustConnect(server->port());
  ASSERT_OK_AND_ASSIGN(
      NodeId root,
      client->InsertTopLevel(testing::MustFragment(
          "<r><a><b>x</b></a><a><b>y</b></a></r>")));
  (void)root;

  // Cold: the lazy index has memoized nothing, so the planner would
  // stream-scan — and EXPLAIN says so without executing.
  ASSERT_OK_AND_ASSIGN(std::string cold, client->Explain("//a//b"));
  EXPECT_NE(cold.find("\"plan\":\"stream-scan\""), std::string::npos)
      << cold;
  EXPECT_NE(cold.find("\"query\":\"//a//b\""), std::string::npos);
  EXPECT_EQ(cold.find("\"profile\""), std::string::npos);

  // Execute once; the same path is now warm and EXPLAIN flips.
  ASSERT_OK_AND_ASSIGN(std::vector<NodeId> hits, client->XPath("//a//b"));
  EXPECT_EQ(hits.size(), 2u);
  ASSERT_OK_AND_ASSIGN(std::string warm, client->Explain("//a//b"));
  EXPECT_NE(warm.find("\"plan\":\"structural-join\""), std::string::npos)
      << warm;
  EXPECT_NE(warm.find("\"warm\":true"), std::string::npos);

  // Profile mode executes and embeds timing + resource counters.
  ASSERT_OK_AND_ASSIGN(std::string profile,
                       client->Explain("//a//b", /*profile=*/true));
  EXPECT_NE(profile.find("\"profile\":{"), std::string::npos) << profile;
  EXPECT_NE(profile.find("\"elapsed_us\":"), std::string::npos);
  EXPECT_NE(profile.find("\"results\":2"), std::string::npos);
  EXPECT_NE(profile.find("\"counters\":{"), std::string::npos);

  // Parse errors come back as the usual Status, connection intact.
  EXPECT_TRUE(client->Explain("///[[[").status().IsParseError());
  ASSERT_LAXML_OK(client->Ping());
  server->Shutdown();
}

#if !defined(LAXML_TRACING_DISABLED)
TEST(ServerClientTest, TraceIdStitchesClientAndServerSpans) {
  auto server = MustStartServer();
  auto client = MustConnect(server->port());
  ASSERT_OK_AND_ASSIGN(
      NodeId root,
      client->InsertTopLevel(testing::MustFragment("<t><u>1</u></t>")));
  (void)root;

  // Client and server run in one process here, so the global tracer
  // sees both sides' rings; the distinctive trace id is the join key.
  const uint64_t kTraceId = 0x7e57ab1eULL;
  client->set_trace_id(kTraceId);
  ASSERT_OK_AND_ASSIGN(std::vector<NodeId> hits, client->XPath("//u"));
  EXPECT_EQ(hits.size(), 1u);
  client->set_trace_id(0);

  obs::TraceDump dump = obs::Tracer::Global().Collect();
  bool saw_client = false;
  bool saw_server = false;
  for (const obs::TraceEvent& ev : dump.events) {
    if (ev.trace_id != kTraceId) continue;
    const std::string& name = dump.names[ev.name_id];
    if (name == "CLIENT_CALL") saw_client = true;
    if (name == "XPATH") saw_server = true;
  }
  EXPECT_TRUE(saw_client);
  EXPECT_TRUE(saw_server);
  server->Shutdown();
}
#endif  // !defined(LAXML_TRACING_DISABLED)

TEST(ServerClientTest, SlowLogRecordsSlowOps) {
  testing::TempFile log_file("server_slow_log");
  ServerOptions options;
  options.slow_op_micros = 1;  // everything is slow
  options.slow_log_path = log_file.path();
  auto server = MustStartServer(options);
  auto client = MustConnect(server->port());

  const uint64_t kTraceId = 424243;
  client->set_trace_id(kTraceId);
  ASSERT_OK_AND_ASSIGN(
      NodeId root,
      client->InsertTopLevel(testing::MustFragment("<s><q>z</q></s>")));
  (void)root;
  ASSERT_OK_AND_ASSIGN(std::vector<NodeId> hits, client->XPath("//q"));
  EXPECT_EQ(hits.size(), 1u);
  server->Shutdown();

  std::FILE* f = std::fopen(log_file.path().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  // Both ops crossed the 1us threshold; the XPath entry carries the
  // query text, the chosen plan, the trace id, and resource counters.
  EXPECT_NE(text.find("\"op\":\"INSERT_TOP_LEVEL\""), std::string::npos)
      << text;
  size_t xpath_pos = text.find("\"op\":\"XPATH\"");
  ASSERT_NE(xpath_pos, std::string::npos) << text;
  std::string line = text.substr(text.rfind('\n', xpath_pos) + 1);
  line = line.substr(0, line.find('\n'));
  EXPECT_NE(line.find("\"query\":\"//q\""), std::string::npos) << line;
#if !defined(LAXML_TRACING_DISABLED)
  EXPECT_NE(line.find("\"plan\":\"stream-scan\""), std::string::npos);
#endif
  EXPECT_NE(line.find("\"trace_id\":424243"), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"OK\""), std::string::npos);
  EXPECT_NE(line.find("\"counters\":{\"tokens_scanned\":"),
            std::string::npos);
}

TEST(ServerClientTest, OversizedFrameClosesConnection) {
  auto server = MustStartServer();

  // A raw connection sends only a frame header whose body length is one
  // past the cap: the server treats it as a protocol error and drops
  // the connection without waiting for the body or answering. A server
  // that waited for the 16 MiB body would leave the read below to time
  // out instead.
  auto fd = net::ConnectTcp("127.0.0.1", server->port(), 1000,
                            /*io_timeout_ms=*/5000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  net::PlainSocket raw(std::move(fd).value());
  uint8_t header[net::kFrameHeaderSize] = {};
  EncodeFixed32(header, static_cast<uint32_t>(net::kMaxFrameBody + 1));
  int err = 0;
  ASSERT_EQ(raw.Write(header, sizeof(header), &err),
            static_cast<ssize_t>(sizeof(header)))
      << err;
  uint8_t byte = 0;
  err = 0;
  ssize_t n = raw.Read(&byte, 1, &err);
  EXPECT_TRUE(n == 0 || (n < 0 && err == ECONNRESET))
      << "read returned " << n << ", errno " << err;

  // The server itself is unharmed: new connections work.
  auto fresh = MustConnect(server->port());
  ASSERT_LAXML_OK(fresh->Ping());
  server->Shutdown();
}

TEST(ServerClientTest, GracefulShutdownAndStoreHandoff) {
  auto server = MustStartServer();
  auto client = MustConnect(server->port());
  ASSERT_OK_AND_ASSIGN(
      NodeId root,
      client->InsertTopLevel(testing::MustFragment("<kept>x</kept>")));
  (void)root;

  server->Shutdown();
  // Idempotent.
  server->Shutdown();

  // The inserted data survives in the handed-back store.
  ASSERT_OK_AND_ASSIGN(TokenSequence doc,
                       server->shared_store()->Read());
  EXPECT_EQ(doc, testing::MustFragment("<kept>x</kept>"));

  // The port no longer accepts new connections.
  net::ClientOptions copts;
  copts.connect_attempts = 1;
  copts.connect_timeout_ms = 500;
  auto dead = net::Client::Connect("127.0.0.1", server->port(), copts);
  EXPECT_FALSE(dead.ok());
}

}  // namespace
}  // namespace laxml
