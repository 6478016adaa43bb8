#include "torture_net/torture_net.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/fsck.h"
#include "common/random.h"
#include "common/status.h"
#include "net/client.h"
#include "net/faulty_socket.h"
#include "server/server.h"
#include "storage/faulty_file.h"
#include "store/store.h"
#include "torture/torture_internal.h"
#include "xml/token_codec.h"
#include "xml/tokenizer.h"

namespace laxml {
namespace torture {
namespace {

void NapMs(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Client-side socket decorator: each dial draws a fresh fault plan from
// the seeded stream, so a client that reconnects after a failure gets a
// new (possibly clean, possibly worse) link.
net::SocketWrapper MakeClientWrapper(uint64_t base_seed) {
  auto dials = std::make_shared<std::atomic<uint64_t>>(0);
  return [base_seed, dials](std::unique_ptr<net::Socket> sock)
             -> std::unique_ptr<net::Socket> {
    const uint64_t n = dials->fetch_add(1, std::memory_order_relaxed);
    Random rng(MixSeed(base_seed, n));
    net::SocketFaultPlan plan;
    plan.random_seed = MixSeed(base_seed, n + 0x51);
    switch (rng.Uniform(8)) {
      case 0:
      case 1:
      case 2:
        break;  // clean link
      case 3:  // flaky link: background resets in either direction
        plan.random_permille[static_cast<int>(net::SocketFaultOp::kRead)] =
            15;
        plan.random_permille[static_cast<int>(net::SocketFaultOp::kWrite)] =
            15;
        plan.random_error = ECONNRESET;
        break;
      case 4:  // short reads/writes, a few bytes per syscall
        plan.max_read_bytes = 1 + rng.Uniform(3);
        plan.max_write_bytes = 1 + rng.Uniform(3);
        break;
      case 5:  // slow-byte throttle
        plan.read_delay_us = 100 + static_cast<uint32_t>(rng.Uniform(300));
        plan.max_read_bytes = 4;
        break;
      case 6:  // abrupt sticky failure mid-conversation
        plan.FailNth(rng.Bernoulli(0.5) ? net::SocketFaultOp::kRead
                                        : net::SocketFaultOp::kWrite,
                     1 + rng.Uniform(30), ECONNRESET, /*sticky=*/true);
        break;
      default:  // refused dial or a dying write side
        if (n > 0 && rng.Bernoulli(0.4)) {
          plan.FailNth(net::SocketFaultOp::kConnect, 1, ECONNREFUSED);
        } else {
          plan.FailNth(net::SocketFaultOp::kWrite, 1 + rng.Uniform(10),
                       EPIPE, /*sticky=*/true);
        }
        break;
    }
    if (rng.Bernoulli(0.08)) {
      // Mid-frame stall: the client's poll deadline must rescue it.
      plan.stall_read_after_bytes = 1 + rng.Uniform(64);
    }
    return net::FaultySocket::Wrap(std::move(sock), plan);
  };
}

// Server-side (accept path) decorator. Kept mild: enough to exercise
// the seam and the server's error paths without making every call
// ambiguous.
net::SocketWrapper MakeServerWrapper(uint64_t base_seed) {
  auto accepts = std::make_shared<std::atomic<uint64_t>>(0);
  return [base_seed, accepts](std::unique_ptr<net::Socket> sock)
             -> std::unique_ptr<net::Socket> {
    const uint64_t n = accepts->fetch_add(1, std::memory_order_relaxed);
    Random rng(MixSeed(base_seed, n + 0x5e));
    net::SocketFaultPlan plan;
    plan.random_seed = MixSeed(base_seed, n + 0x5e5e);
    switch (rng.Uniform(10)) {
      case 0:
        plan.random_permille[static_cast<int>(net::SocketFaultOp::kRead)] =
            8;
        plan.random_error = ECONNRESET;
        break;
      case 1:
        plan.max_write_bytes = 1 + rng.Uniform(4);
        break;
      default:
        break;
    }
    return net::FaultySocket::Wrap(std::move(sock), plan);
  };
}

StoreOptions NetStoreOptions(const NetTortureOptions& opts, size_t frames) {
  StoreOptions so;
  so.pager.page_size = opts.page_size;
  so.pager.pool_frames = frames;
  so.max_range_bytes = 4096;
  so.enable_wal = true;
  so.wal_sync = WalSyncMode::kEveryCommit;
  so.token_codec = opts.token_codec;
  so.paranoid_audit_interval = 0;
  return so;
}

// One client thread: a private top-level subtree mirrored into a
// private in-memory oracle, every transport ambiguity resolved before
// the next op runs.
class ClientRunner {
 public:
  ClientRunner(const NetTortureOptions& opts, uint64_t iter_seed,
               uint32_t index, uint64_t iteration,
               std::atomic<uint16_t>* port, std::atomic<bool>* abort)
      : opts_(opts),
        rng_(MixSeed(iter_seed, 1000 + index)),
        index_(index),
        iteration_(iteration),
        port_(port),
        abort_(abort),
        wrapper_(MakeClientWrapper(MixSeed(iter_seed, 2000 + index))),
        backoff_seed_(MixSeed(iter_seed, 3000 + index)) {}

  void Run();

  const std::string& error() const { return error_; }
  NodeId server_root() const { return server_root_; }
  Store* oracle() { return oracle_.get(); }
  NodeId oracle_root() const { return oracle_root_; }

  // Tallies merged into the report by the controller after join.
  uint64_t acked = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t transport = 0;
  uint64_t amb_applied = 0;
  uint64_t amb_not_applied = 0;
  uint64_t reads_verified = 0;

 private:
  void Fail(const std::string& msg) {
    if (error_.empty()) {
      error_ = "client " + std::to_string(index_) + ": " + msg;
    }
  }
  bool EnsureConnected();
  Result<net::Response> CallRetryRead(const net::Request& req, int tries);
  bool EstablishRoot();
  TortureOp GenOpNet();
  Result<net::Request> ToRequest(const TortureOp& op);
  bool CommitToOracle(const TortureOp& op, NodeId server_id);
  void PurgeDeadMappings();
  Result<std::vector<uint8_t>> RenderWithOp(const TortureOp& op);
  bool ResolveAmbiguous(const TortureOp& op);
  void VerifyRead();

  const NetTortureOptions& opts_;
  Random rng_;
  const uint32_t index_;
  const uint64_t iteration_;
  std::atomic<uint16_t>* port_;
  std::atomic<bool>* abort_;
  net::SocketWrapper wrapper_;
  const uint64_t backoff_seed_;

  std::unique_ptr<net::Client> cli_;
  std::unique_ptr<Store> oracle_;
  std::vector<TortureOp> log_;  ///< Applied ops, oracle-id space.
  /// oracle id -> server id; only mapped nodes are targetable.
  std::map<NodeId, NodeId> idmap_;
  NodeId oracle_root_ = kInvalidNodeId;
  NodeId server_root_ = kInvalidNodeId;
  std::string error_;
};

bool ClientRunner::EnsureConnected() {
  cli_.reset();
  for (int attempt = 0; attempt < 1500; ++attempt) {
    if (abort_->load(std::memory_order_acquire)) {
      Fail("aborted");
      return false;
    }
    const uint16_t p = port_->load(std::memory_order_acquire);
    if (p == 0) {  // server down (crash window); wait for the republish
      NapMs(5);
      continue;
    }
    net::ClientOptions co;
    co.connect_attempts = 1;
    co.connect_timeout_ms = 1000;
    co.io_timeout_ms = 400;
    // Odd-indexed clients carry no retry budget, so server sheds
    // surface to the harness as honest kRetryLater (exercising that
    // classification) instead of always being absorbed by backoff.
    co.retry_later_attempts = index_ % 2 == 1 ? 0 : 3;
    co.retry_later_base_ms = 2;
    co.retry_later_max_ms = 40;
    co.backoff_seed = MixSeed(backoff_seed_, attempt + 1);
    co.socket_wrapper = wrapper_;
    auto c = net::Client::Connect("127.0.0.1", p, co);
    if (c.ok()) {
      cli_ = std::move(*c);
      return true;
    }
    NapMs(2 + rng_.Uniform(8));
  }
  Fail("could not (re)connect within bounds");
  return false;
}

Result<net::Response> ClientRunner::CallRetryRead(const net::Request& req,
                                                 int tries) {
  for (int t = 0; t < tries; ++t) {
    if (abort_->load(std::memory_order_acquire)) {
      return Status::Aborted("harness abort");
    }
    if (cli_ == nullptr && !EnsureConnected()) {
      return Status::Aborted("no connection");
    }
    net::Request copy = req;
    auto r = cli_->Call(std::move(copy));
    if (r.ok() && !IsEnvironmental(r->status)) return r;
    if (!r.ok()) cli_.reset();  // transport failure: reconnect next try
    NapMs(5 + rng_.Uniform(15));
  }
  return Status::Aborted("read retries exhausted");
}

bool ClientRunner::EstablishRoot() {
  for (int attempt = 0; attempt < 25; ++attempt) {
    if (abort_->load(std::memory_order_acquire)) return false;
    // Unique per attempt: if an ambiguous attempt actually landed, its
    // tag pins it down; an abandoned one is unowned and never checked.
    const std::string tag = "t" + std::to_string(iteration_) + "x" +
                            std::to_string(index_) + "a" +
                            std::to_string(attempt);
    const std::string xml = "<" + tag + "/>";
    auto frag = ParseFragment(xml);
    if (!frag.ok()) {
      Fail("root fragment parse: " + frag.status().ToString());
      return false;
    }
    if (cli_ == nullptr && !EnsureConnected()) return false;
    net::Request req;
    req.op = net::OpCode::kInsertTopLevel;
    req.data = *frag;
    auto r = cli_->Call(std::move(req));
    NodeId sid = kInvalidNodeId;
    if (r.ok() && r->status.ok()) {
      sid = r->id;
    } else if (r.ok()) {
      // A typed failure is pre-commit (shed, expired, or fail-stop):
      // definitely not applied, try a fresh tag.
      if (!r->status.IsRetryLater() && !r->status.IsDeadlineExceeded() &&
          !IsEnvironmental(r->status)) {
        Fail("root insert rejected: " + r->status.ToString());
        return false;
      }
      NapMs(5 + rng_.Uniform(10));
      continue;
    } else {
      ++transport;
      cli_.reset();
      // Ambiguous: the unique tag answers whether the insert landed.
      net::Request q;
      q.op = net::OpCode::kXPath;
      q.expr = "/" + tag;
      auto resolved = CallRetryRead(q, 120);
      if (!resolved.ok()) {
        Fail("root resolution: " + resolved.status().ToString());
        return false;
      }
      if (!resolved->status.ok()) {
        NapMs(5);
        continue;  // query kept being shed; abandon this tag
      }
      if (resolved->ids.size() == 1) {
        sid = resolved->ids[0];
      } else if (resolved->ids.empty()) {
        continue;  // not applied; next attempt
      } else {
        Fail("duplicate nodes for unique root tag " + tag);
        return false;
      }
    }
    if (sid != kInvalidNodeId) {
      TortureOp op;
      op.kind = WalOp::kInsertTopLevel;
      op.xml = xml;
      auto o = ApplyOp(*oracle_, op);
      if (!o.ok()) {
        Fail("oracle root insert: " + o.status().ToString());
        return false;
      }
      log_.push_back(op);
      oracle_root_ = *o;
      server_root_ = sid;
      idmap_[oracle_root_] = sid;
      return true;
    }
  }
  // Could not establish a root under sustained faults: run as a no-op
  // client (nothing acked, nothing to verify) rather than a false fail.
  return false;
}

TortureOp ClientRunner::GenOpNet() {
  std::vector<NodeId> others;
  for (const auto& kv : idmap_) {
    if (kv.first != oracle_root_) others.push_back(kv.first);
  }
  auto pick = [&]() { return others[rng_.Uniform(others.size())]; };
  TortureOp op;
  const uint64_t roll = rng_.Uniform(100);
  if (others.empty() || roll < 35) {
    op.kind = rng_.Bernoulli(0.5) ? WalOp::kInsertIntoLast
                                  : WalOp::kInsertIntoFirst;
    op.target =
        (others.empty() || rng_.Bernoulli(0.4)) ? oracle_root_ : pick();
    op.xml = RandomFragment(rng_);
  } else if (roll < 55) {
    // Sibling inserts never target the root: a sibling of the root
    // would be a new top-level subtree outside this client's fence.
    op.kind = rng_.Bernoulli(0.5) ? WalOp::kInsertBefore : WalOp::kInsertAfter;
    op.target = pick();
    op.xml = RandomFragment(rng_);
  } else if (roll < 75) {
    op.kind = WalOp::kDeleteNode;
    op.target = pick();
  } else {
    op.kind = rng_.Bernoulli(0.5) ? WalOp::kReplaceNode
                                  : WalOp::kReplaceContent;
    op.target = pick();
    op.xml = RandomFragment(rng_);
  }
  return op;
}

Result<net::Request> ClientRunner::ToRequest(const TortureOp& op) {
  net::Request req;
  req.op = net::OpCodeOf(op.kind);
  if (op.kind != WalOp::kInsertTopLevel) {
    req.target = idmap_.at(op.target);
  }
  if (!op.xml.empty()) {
    LAXML_ASSIGN_OR_RETURN(req.data, ParseFragment(op.xml));
  }
  return req;
}

void ClientRunner::PurgeDeadMappings() {
  for (auto it = idmap_.begin(); it != idmap_.end();) {
    if (!oracle_->Exists(it->first)) {
      it = idmap_.erase(it);
    } else {
      ++it;
    }
  }
}

bool ClientRunner::CommitToOracle(const TortureOp& op, NodeId server_id) {
  auto o = ApplyOp(*oracle_, op);
  if (!o.ok()) {
    Fail("oracle rejected an op the server applied: " +
         o.status().ToString());
    return false;
  }
  log_.push_back(op);
  // Deletes and replaces drop nodes; every kind but a delete adds one,
  // mapped when the server's id is known.
  if (op.kind == WalOp::kDeleteNode || op.kind == WalOp::kReplaceNode ||
      op.kind == WalOp::kReplaceContent) {
    PurgeDeadMappings();
  }
  if (op.kind != WalOp::kDeleteNode && server_id != kInvalidNodeId) {
    idmap_[*o] = server_id;
  }
  return true;
}

Result<std::vector<uint8_t>> ClientRunner::RenderWithOp(
    const TortureOp& op) {
  // Node ids are assigned deterministically, so replaying the applied
  // log into a scratch store reproduces the oracle exactly — then the
  // candidate op lands on top without disturbing the real oracle.
  StoreOptions so;
  so.token_codec = opts_.token_codec >= 2 ? 1 : 2;
  so.paranoid_audit_interval = 0;
  LAXML_ASSIGN_OR_RETURN(auto scratch, Store::OpenInMemory(so));
  NodeId root = kInvalidNodeId;
  for (size_t i = 0; i < log_.size(); ++i) {
    LAXML_ASSIGN_OR_RETURN(NodeId id, ApplyOp(*scratch, log_[i]));
    if (i == 0) root = id;
  }
  auto applied = ApplyOp(*scratch, op);
  if (!applied.ok()) return applied.status();
  LAXML_ASSIGN_OR_RETURN(auto toks, scratch->Read(root));
  return EncodeTokens(toks);
}

bool ClientRunner::ResolveAmbiguous(const TortureOp& op) {
  auto with = RenderWithOp(op);
  if (!with.ok()) {
    // The op cannot apply even in principle (deterministic rejection),
    // so the lost call cannot have changed anything.
    ++amb_not_applied;
    return true;
  }
  int stable_without = 0;
  for (int t = 0; t < 200; ++t) {
    if (abort_->load(std::memory_order_acquire)) {
      Fail("aborted");
      return false;
    }
    net::Request req;
    req.op = net::OpCode::kReadNode;
    req.target = server_root_;
    auto r = CallRetryRead(req, 60);
    if (!r.ok()) {
      Fail("ambiguity resolution read failed: " + r.status().ToString());
      return false;
    }
    if (!r->status.ok()) {
      NapMs(10);
      continue;
    }
    auto want_without = oracle_->Read(oracle_root_);
    if (!want_without.ok()) {
      Fail("oracle read: " + want_without.status().ToString());
      return false;
    }
    const std::vector<uint8_t> got = EncodeTokens(r->tokens);
    if (got == *with) {
      ++amb_applied;
      return CommitToOracle(op, kInvalidNodeId);
    }
    if (got == EncodeTokens(*want_without)) {
      // The op may still be in the dead connection's pipeline at the
      // server; require two consecutive stable sightings before ruling
      // it never-applied.
      if (++stable_without >= 2) {
        ++amb_not_applied;
        return true;
      }
      NapMs(40);
      continue;
    }
    Fail("subtree matches neither oracle nor oracle+op after a "
         "transport failure: " +
         DescribeDivergence(r->tokens, *want_without));
    return false;
  }
  Fail("ambiguity unresolved within bounds");
  return false;
}

void ClientRunner::VerifyRead() {
  if (idmap_.empty()) return;
  auto it = idmap_.begin();
  std::advance(it, rng_.Uniform(idmap_.size()));
  net::Request req;
  req.op = net::OpCode::kReadNode;
  req.target = it->second;
  auto r = CallRetryRead(req, 40);
  if (!r.ok() || !r->status.ok()) return;  // overload noise, not signal
  auto want = oracle_->Read(it->first);
  if (!want.ok()) {
    Fail("oracle read: " + want.status().ToString());
    return;
  }
  if (EncodeTokens(r->tokens) != EncodeTokens(*want)) {
    Fail("live read diverged from the oracle: " +
         DescribeDivergence(r->tokens, *want));
    return;
  }
  ++reads_verified;
}

void ClientRunner::Run() {
  StoreOptions oo;
  // Cross-codec mirror, as in the storage harness.
  oo.token_codec = opts_.token_codec >= 2 ? 1 : 2;
  oo.paranoid_audit_interval = 0;
  auto oracle = Store::OpenInMemory(oo);
  if (!oracle.ok()) {
    Fail("oracle open: " + oracle.status().ToString());
    return;
  }
  oracle_ = std::move(*oracle);
  if (!EstablishRoot()) return;
  for (uint32_t i = 0; i < opts_.ops_per_client && error_.empty() &&
                       !abort_->load(std::memory_order_acquire);
       ++i) {
    if (rng_.Bernoulli(0.2)) {
      VerifyRead();
      if (!error_.empty()) return;
    }
    TortureOp op = GenOpNet();
    auto req = ToRequest(op);
    if (!req.ok()) {
      Fail("request build: " + req.status().ToString());
      return;
    }
    if (rng_.Bernoulli(0.03)) {
      // Explicitly expired: the server MUST answer DeadlineExceeded
      // without applying — guaranteed coverage of the deadline path.
      req->deadline_ms = 0;
    } else if (rng_.Bernoulli(0.15)) {
      req->deadline_ms = 1 + rng_.Uniform(40);
    }
    if (rng_.Uniform(3) == 0) NapMs(rng_.Uniform(3));
    if (cli_ == nullptr && !EnsureConnected()) return;
    auto r = cli_->Call(std::move(*req));
    if (!r.ok()) {
      ++transport;
      cli_.reset();
      if (!ResolveAmbiguous(op)) return;
      continue;
    }
    const Status& st = r->status;
    if (st.ok()) {
      if (!CommitToOracle(op, r->id)) return;
      ++acked;
    } else if (st.IsRetryLater()) {
      ++shed;  // honest shed after the client's backoff budget
    } else if (st.IsDeadlineExceeded()) {
      ++deadline;  // rejected pre-execution; definitely not applied
    } else if (IsEnvironmental(st)) {
      NapMs(5);  // crash window: fail-stopped before commit
    } else {
      // Deterministic rejection: the oracle must agree it is invalid.
      auto o = ApplyOp(*oracle_, op);
      if (o.ok()) {
        Fail("server rejected an op the oracle accepts: " + st.ToString());
        return;
      }
      ++rejected;
    }
  }
}

struct NetIterationResult {
  std::string error;
  bool ok() const { return error.empty(); }
};

struct ServerHandle {
  std::unique_ptr<Server> server;
  FaultyFile* pages = nullptr;
  FaultyFile* wal = nullptr;
};

// Opens the store file under fresh injectors and starts a server on an
// ephemeral port.
Status OpenAndServe(const NetTortureOptions& opts, const std::string& path,
                    size_t frames, const ServerOptions& sopts,
                    ServerHandle* out) {
  StoreOptions so = NetStoreOptions(opts, frames);
  so.file_wrapper = WrapInFaultyFiles(&out->pages, &out->wal);
  LAXML_ASSIGN_OR_RETURN(auto store, Store::Open(path, so));
  LAXML_ASSIGN_OR_RETURN(out->server,
                         Server::Start(std::move(store), sopts));
  return Status::OK();
}

NetIterationResult RunNetIteration(const NetTortureOptions& opts,
                                   const std::string& path, uint64_t seed,
                                   uint64_t iteration,
                                   NetTortureReport* report,
                                   std::string* cut) {
  Random crng(seed);
  std::atomic<uint16_t> port{0};
  std::atomic<bool> abort{false};

  ServerOptions sopts;
  sopts.num_workers = 3;
  // A quarter of the iterations run genuinely starved (one worker, a
  // one-slot queue) so concurrent clients collide with admission
  // control and sheds actually happen; the rest get roomy queues.
  if (crng.Bernoulli(0.25)) {
    sopts.num_workers = 1;
    sopts.max_queue = 1;
  } else {
    sopts.max_queue = 4 + crng.Uniform(28);
  }
  sopts.request_deadline_ms = crng.Bernoulli(0.3) ? 250 : 0;
  sopts.write_timeout_ms = 1500;
  sopts.idle_timeout_s = 0;  // torture clients legitimately pause
  sopts.drain_flush_timeout_ms = 2000;
  sopts.socket_wrapper = MakeServerWrapper(MixSeed(seed, 77));

  ServerHandle h;
  Status started = OpenAndServe(opts, path, opts.pool_frames, sopts, &h);
  if (!started.ok()) {
    return {"server start: " + started.ToString()};
  }
  port.store(h.server->port(), std::memory_order_release);

  std::vector<std::unique_ptr<ClientRunner>> runners;
  std::vector<std::thread> threads;
  runners.reserve(opts.clients);
  for (uint32_t k = 0; k < opts.clients; ++k) {
    runners.push_back(std::make_unique<ClientRunner>(opts, seed, k,
                                                     iteration, &port,
                                                     &abort));
  }
  for (auto& r : runners) {
    threads.emplace_back([rp = r.get()] { rp->Run(); });
  }
  auto join_all = [&threads] {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  };
  auto bail = [&](const std::string& err) {
    abort.store(true, std::memory_order_release);
    join_all();
    return NetIterationResult{err};
  };

  // ---- Mid-run crash: power loss under live traffic. ----------------
  NapMs(30 + crng.Uniform(120));
  port.store(0, std::memory_order_release);
  Status crash_st = h.server->shared_store()->WithExclusive([&](Store& s) {
    s.TestOnlyCrash();
    uint64_t torn_tails = 0;
    *cut = CrashFiles(crng, h.pages, h.wal, &torn_tails);
    return Status::OK();
  });
  if (!crash_st.ok()) return bail("crash injection: " + crash_st.ToString());
  ++report->server_crashes;
  // The injectors now reject every further file op, so the drain below
  // answers fail-stop statuses and cannot contaminate the crash image.
  h.server->Shutdown();
  h.server.reset();

  const size_t recovery_frames =
      opts.pool_frames * 8 > 512 ? opts.pool_frames * 8 : 512;

  FsckOptions fo;
  fo.pool_frames = recovery_frames;
  FsckOutcome fsck = RunFsck(path, fo);
  if (fsck.exit_code != 0) {
    std::string detail = fsck.error;
    if (detail.empty() && !fsck.report.issues.empty()) {
      detail = fsck.report.issues.front().message;
    }
    return bail("fsck after crash failed (exit " +
                std::to_string(fsck.exit_code) + "): " + detail);
  }

  // ---- Restart on a fresh port; clients re-discover it. -------------
  ServerHandle h2;
  Status restarted =
      OpenAndServe(opts, path, recovery_frames, sopts, &h2);
  if (!restarted.ok()) {
    return bail("server restart: " + restarted.ToString());
  }
  Status integ = h2.server->shared_store()->WithExclusive(
      [](Store& s) { return s.CheckIntegrity(); });
  if (!integ.ok()) {
    return bail("CheckIntegrity after recovery: " + integ.ToString());
  }
  port.store(h2.server->port(), std::memory_order_release);

  join_all();
  for (auto& r : runners) {
    report->ops_acked += r->acked;
    report->ops_rejected += r->rejected;
    report->ops_shed += r->shed;
    report->ops_deadline += r->deadline;
    report->transport_failures += r->transport;
    report->ambiguous_applied += r->amb_applied;
    report->ambiguous_not_applied += r->amb_not_applied;
    report->reads_verified += r->reads_verified;
  }
  for (auto& r : runners) {
    if (!r->error().empty()) return {r->error()};
  }

  // ---- Graceful drain, then offline verification. -------------------
  h2.server->Shutdown();
  h2.server.reset();

  fsck = RunFsck(path, fo);
  if (fsck.exit_code != 0) {
    std::string detail = fsck.error;
    if (detail.empty() && !fsck.report.issues.empty()) {
      detail = fsck.report.issues.front().message;
    }
    return {"fsck after graceful shutdown failed (exit " +
            std::to_string(fsck.exit_code) + "): " + detail};
  }
  StoreOptions verify_opts = NetStoreOptions(opts, recovery_frames);
  auto reopened = Store::Open(path, verify_opts);
  if (!reopened.ok()) {
    return {"verification open failed: " + reopened.status().ToString()};
  }
  Status audit = (*reopened)->CheckIntegrity();
  if (!audit.ok()) {
    return {"CheckIntegrity at verification: " + audit.ToString()};
  }
  for (auto& r : runners) {
    if (r->server_root() == kInvalidNodeId) continue;
    auto got = (*reopened)->Read(r->server_root());
    if (!got.ok()) {
      return {"verification read of client subtree: " +
              got.status().ToString()};
    }
    auto want = r->oracle()->Read(r->oracle_root());
    if (!want.ok()) {
      return {"oracle read at verification: " + want.status().ToString()};
    }
    if (EncodeTokens(*got) != EncodeTokens(*want)) {
      return {"client subtree diverged from oracle after the run: " +
              DescribeDivergence(*got, *want)};
    }
  }
  reopened->reset();  // clean close for the next iteration
  return {};
}

}  // namespace

NetTortureReport RunNetTorture(const NetTortureOptions& options) {
  NetTortureReport report;
  const std::string path = options.dir + "/torture_net_store.laxml";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  for (uint32_t i = 0; i < options.iterations; ++i) {
    const uint64_t seed = MixSeed(options.seed, i);
    std::string cut = "not reached";
    NetIterationResult result =
        RunNetIteration(options, path, seed, i, &report, &cut);
    ++report.iterations_run;
    if (options.verbose) {
      std::fprintf(
          stderr,
          "net iter %u seed %llu: %s (acked %llu, shed %llu, "
          "transport %llu, ambiguous %llu/%llu)\n",
          i, static_cast<unsigned long long>(seed),
          result.ok() ? "ok" : result.error.c_str(),
          static_cast<unsigned long long>(report.ops_acked),
          static_cast<unsigned long long>(report.ops_shed),
          static_cast<unsigned long long>(report.transport_failures),
          static_cast<unsigned long long>(report.ambiguous_applied),
          static_cast<unsigned long long>(report.ambiguous_not_applied));
    }
    if (!result.ok()) {
      report.error = result.error;
      report.failed_iteration = i;
      report.failed_seed = seed;
      report.failed_schedule =
          "armed fault: none (socket faults only); crash cut: " + cut;
      return report;
    }
  }
  return report;
}

}  // namespace torture
}  // namespace laxml
