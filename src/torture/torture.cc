#include "torture/torture.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/fsck.h"
#include "common/random.h"
#include "common/status.h"
#include "query/xpath_ast.h"
#include "query/xpath_stream.h"
#include "storage/faulty_file.h"
#include "store/store.h"
#include "torture/torture_internal.h"
#include "xml/token_codec.h"
#include "xml/tokenizer.h"

namespace laxml {
namespace torture {
namespace {

TortureOp GenOp(Random& rng, Store& oracle) {
  TortureOp op;
  // Bias toward deletes once the document is large so the per-iteration
  // serialize/verify pass stays bounded as iterations accumulate.
  const bool crowded = oracle.live_node_count() > 3000;
  const uint64_t roll = rng.Uniform(100);
  const uint64_t delete_cut = crowded ? 45 : 18;
  if (roll < delete_cut) {
    op.kind = WalOp::kDeleteNode;
  } else if (roll < delete_cut + 12) {
    op.kind = rng.Bernoulli(0.5) ? WalOp::kReplaceNode
                                 : WalOp::kReplaceContent;
    op.xml = RandomFragment(rng);
  } else if (roll < delete_cut + 24) {
    op.kind = WalOp::kInsertTopLevel;
    op.xml = RandomFragment(rng);
  } else {
    // WalOp 0-3 are the four positional inserts.
    op.kind = static_cast<WalOp>(rng.Uniform(4));
    op.xml = RandomFragment(rng);
  }
  if (op.kind != WalOp::kInsertTopLevel) {
    op.target = PickTarget(rng, oracle);
    if (op.target == kInvalidNodeId) {
      op.kind = WalOp::kInsertTopLevel;
      if (op.xml.empty()) op.xml = RandomFragment(rng);
    }
  }
  return op;
}

// Arms at most one fault on the injectors, drawn from the seeded
// schedule and counted from the calls each file has seen since the open.
// Roughly a third of iterations crash without any injected fault at
// all — pure power loss at a random point. Returns the fault as the
// failure line names it.
std::string ArmFaults(Random& rng, uint32_t ops, FaultyFile* pages,
                      FaultyFile* wal) {
  FaultyFile* file = pages;
  FaultOp op = FaultOp::kWrite;
  uint64_t nth = 0;
  Status error = Status::IOError("injected fault");
  switch (rng.Uniform(10)) {
    case 0:
    case 1:
    case 2:
      return "none";  // crash-only
    case 3:
      nth = rng.Range(1, ops * 4);
      break;
    case 4:
      op = FaultOp::kSync;
      nth = rng.Range(1, 3);
      break;
    case 5:
      // A full disk: ENOSPC is a write's status. Under the WAL's
      // no-steal pool, page writes happen only inside checkpoints.
      nth = rng.Range(1, ops * 2);
      error = Status::NoSpace("injected ENOSPC");
      break;
    case 6:
      // A checkpoint's first page write is its meta page.
      nth = rng.Range(1, 3);
      break;
    case 7:
      file = wal;
      nth = rng.Range(1, ops + 4);
      break;
    case 8:
      file = wal;
      op = FaultOp::kSync;
      nth = rng.Range(1, ops + 4);
      break;
    default:
      // After the open, the log is read only by a checkpoint reset's
      // zero check: this fails the Nth reset before it writes.
      file = wal;
      op = FaultOp::kRead;
      nth = rng.Range(1, 3);
      break;
  }
  file->FailNth(op, file->op_count(op) + nth, std::move(error));
  return std::string(file == wal ? "wal" : "page file") + " " +
         FaultOpName(op) + " #" + std::to_string(nth) +
         " after the open (once)";
}

StoreOptions MakeStoreOptions(const TortureOptions& opts) {
  StoreOptions so;
  so.pager.page_size = opts.page_size;
  so.pager.pool_frames = opts.pool_frames;
  so.max_range_bytes = 4096;
  so.enable_wal = true;
  so.wal_sync = WalSyncMode::kEveryCommit;
  so.token_codec = opts.token_codec;
  so.paranoid_audit_interval = 0;  // one explicit CheckIntegrity below
  return so;
}

struct IterationResult {
  std::string error;  // empty = pass
  bool ok() const { return error.empty(); }
};

// The armed fault and the crash cut, for the failure line.
struct Schedule {
  std::string fault = "not armed";
  std::string cut = "not reached";
};

IterationResult RunIteration(const TortureOptions& opts,
                             const std::string& path, uint64_t seed,
                             Store& oracle, TortureReport* report,
                             Schedule* schedule) {
  Random rng(seed);

  FaultyFile* pages = nullptr;
  FaultyFile* wal = nullptr;
  StoreOptions so = MakeStoreOptions(opts);
  so.file_wrapper = WrapInFaultyFiles(&pages, &wal);

  auto opened = Store::Open(path, so);
  if (!opened.ok()) {
    return {"open under injectors failed (no faults armed yet): " +
            opened.status().ToString()};
  }
  std::unique_ptr<Store> store = std::move(*opened);
  schedule->fault = ArmFaults(rng, opts.ops_per_iteration, pages, wal);

  // ---- Workload: mirror every acked mutation into the oracle. -------
  std::optional<TortureOp> pending;  // env-failed op; may have hit the WAL
  for (uint32_t i = 0; i < opts.ops_per_iteration; ++i) {
    // Occasional explicit checkpoint: the page-sync / meta / truncate
    // faults only have something to bite during one of these.
    if (rng.Bernoulli(0.08)) {
      Status st = store->Sync();
      if (!st.ok()) {
        if (!IsEnvironmental(st)) return {"Sync failed: " + st.ToString()};
        if (!store->poisoned()) {
          return {"sync error did not poison the store: " + st.ToString()};
        }
        break;  // checkpoint failed mid-flight; nothing acked was lost
      }
    }
    // Occasional read touch: churns the pool/memoization and verifies
    // degraded reads never take the store down.
    if (rng.Bernoulli(0.15)) {
      NodeId id = PickTarget(rng, oracle);
      if (id != kInvalidNodeId) (void)store->Read(id);
    }

    TortureOp op = GenOp(rng, oracle);
    auto store_result = ApplyOp(*store, op);
    if (store_result.ok()) {
      auto oracle_result = ApplyOp(oracle, op);
      if (!oracle_result.ok()) {
        return {"oracle rejected an op the store acked: " +
                oracle_result.status().ToString()};
      }
      if (*oracle_result != *store_result) {
        return {"node-id divergence: store returned " +
                std::to_string(*store_result) + ", oracle " +
                std::to_string(*oracle_result)};
      }
      ++report->ops_acked;
    } else if (!IsEnvironmental(store_result.status())) {
      auto oracle_result = ApplyOp(oracle, op);
      if (oracle_result.ok()) {
        return {"store rejected an op the oracle accepts: " +
                store_result.status().ToString()};
      }
      ++report->ops_rejected;
    } else {
      // Injected (or cascaded) failure: fail-stop must have engaged —
      // further mutations rejected as Poisoned, reads still served.
      if (!store->poisoned()) {
        return {"environmental error did not poison the store: " +
                store_result.status().ToString()};
      }
      Status rejected = store->Apply(WalOp::kDeleteNode, 1, {}).status();
      if (!rejected.IsPoisoned()) {
        return {"poisoned store accepted (or mis-rejected) a mutation: " +
                rejected.ToString()};
      }
      (void)store->Read();  // degraded reads must not crash
      pending = op;
      break;
    }
  }
  if (store->poisoned()) ++report->poisonings;
  report->faults_fired += pages->injected_faults() + wal->injected_faults();

  // ---- Crash: drop everything unsynced. -----------------------------
  store->TestOnlyCrash();
  schedule->cut = CrashFiles(rng, pages, wal, &report->torn_tail_crashes);
  store.reset();

  // Recovery runs with a larger pool than the torture workload: under
  // the no-steal policy a single operation's write set must fit in the
  // pool, and an op that fail-stopped the live store on pool exhaustion
  // is still in the WAL — replaying it needs the headroom the live run
  // lacked. This mirrors the operator remedy the error text prescribes
  // ("checkpoint or enlarge the pool").
  const size_t recovery_frames =
      opts.pool_frames * 8 > 512 ? opts.pool_frames * 8 : 512;

  // ---- Verify 1: fsck over the crashed files. -----------------------
  FsckOptions fsck_opts;
  fsck_opts.pool_frames = recovery_frames;
  FsckOutcome fsck = RunFsck(path, fsck_opts);
  if (fsck.exit_code != 0) {
    std::string detail = fsck.error;
    if (detail.empty() && !fsck.report.issues.empty()) {
      detail = fsck.report.issues.front().message;
    }
    return {"fsck after crash failed (exit " +
            std::to_string(fsck.exit_code) + "): " + detail};
  }

  // ---- Verify 2: recover for real, audit, compare to the oracle. ----
  StoreOptions recovery_opts = MakeStoreOptions(opts);
  recovery_opts.pager.pool_frames = recovery_frames;
  auto reopened = Store::Open(path, recovery_opts);
  if (!reopened.ok()) {
    return {"recovery open failed: " + reopened.status().ToString()};
  }
  Status integrity = (*reopened)->CheckIntegrity();
  if (!integrity.ok()) {
    return {"CheckIntegrity after recovery: " + integrity.ToString()};
  }

  // The comparison runs on the raw token streams, not serialized XML:
  // Table-1 splice semantics admit instances XML text cannot express
  // (DESIGN.md §9), and those must round-trip through a crash too.
  auto got = (*reopened)->Read();
  if (!got.ok()) return {"recovered read-back: " + got.status().ToString()};
  auto want = oracle.Read();
  if (!want.ok()) return {"oracle read-back: " + want.status().ToString()};
  if (EncodeTokens(*got) != EncodeTokens(*want)) {
    // The one in-flight operation at crash time was never acked, but
    // its WAL record may have reached the disk before the failure — a
    // logged op legitimately replays. Acked history must match either
    // way; anything else is lost or invented data.
    bool excused = false;
    if (pending.has_value()) {
      auto replayed = ApplyOp(oracle, *pending);
      if (replayed.ok()) {
        want = oracle.Read();
        if (!want.ok()) {
          return {"oracle read-back: " + want.status().ToString()};
        }
        excused = (EncodeTokens(*got) == EncodeTokens(*want));
      }
    }
    if (!excused) return {DescribeDivergence(*got, *want)};
  }
  if ((*reopened)->node_high_water() != oracle.node_high_water()) {
    return {"node high-water divergence: recovered " +
            std::to_string((*reopened)->node_high_water()) + " vs oracle " +
            std::to_string(oracle.node_high_water())};
  }

  // ---- Verify 3: XPath with the structural index on vs off. ---------
  // Over the recovered store, every query must answer identically with
  // the index bypassed (plain scan), with a cold index (full scan +
  // warm as by-product), and with the index warm (posting-list join
  // for the paths the gate accepts, a plain scan for //t0/* and
  // //t0/@*, which it refuses) — byte-for-byte on the id vectors.
  // Query tags and the attribute name and value come from the instance
  // itself so the paths actually select.
  {
    std::vector<std::string> tags;
    std::string attribute, value;
    for (const Token& t : *got) {
      if (tags.size() >= 3 && !attribute.empty()) break;
      if (t.type == TokenType::kBeginAttribute && attribute.empty()) {
        attribute = t.name;
        value = t.value;
      }
      if (t.type != TokenType::kBeginElement || tags.size() >= 3) continue;
      bool known = false;
      for (const std::string& s : tags) known = known || s == t.name;
      if (!known) tags.push_back(t.name);
    }
    std::vector<XPathPath> paths;
    auto step = [](XPathAxis axis, NodeTestKind test,
                   const std::string& name = std::string()) {
      XPathStep s;
      s.axis = axis;
      s.test = test;
      s.name = name;
      return s;
    };
    auto named = [&](XPathAxis axis, const std::string& name) {
      return step(axis, NodeTestKind::kName, name);
    };
    auto path = [&](std::vector<XPathStep> steps) {
      XPathPath p;
      p.absolute = true;
      p.steps = std::move(steps);
      paths.push_back(std::move(p));
    };
    for (const std::string& t : tags) {
      path({named(XPathAxis::kDescendant, t)});
    }
    if (tags.size() >= 2) {
      const std::string& t0 = tags[0];
      const std::string& t1 = tags[1];
      path({named(XPathAxis::kDescendant, t0),
            named(XPathAxis::kDescendant, t1)});
      path({named(XPathAxis::kChild, t0), named(XPathAxis::kChild, t1)});
      // Refused by the gate: //t0/*, //t0/@*; joined onto text():
      // //t0/t1/text().
      const XPathStep any_t0 = named(XPathAxis::kDescendant, t0);
      path({any_t0, step(XPathAxis::kChild, NodeTestKind::kWildcard)});
      path({any_t0, step(XPathAxis::kAttribute, NodeTestKind::kWildcard)});
      path({any_t0, named(XPathAxis::kChild, t1),
            step(XPathAxis::kChild, NodeTestKind::kText)});
      // Joined through a '*' level and onto an attribute's own list:
      // //t0/*/t1, //t0/@a.
      path({any_t0, step(XPathAxis::kChild, NodeTestKind::kWildcard),
            named(XPathAxis::kChild, t1)});
      if (!attribute.empty()) {
        path({any_t0, step(XPathAxis::kAttribute, NodeTestKind::kName,
                           attribute)});
      }
      // Predicates as semi-joins: //t0[t1], //t0[t1]/t2, //t0[@a='v'],
      // //t0/t1[1].
      XPathStep with_child = any_t0;
      XPathPredicate has_t1;
      has_t1.path.steps.push_back(named(XPathAxis::kChild, t1));
      with_child.predicates.push_back(std::move(has_t1));
      path({with_child});
      if (tags.size() >= 3) {
        path({with_child, named(XPathAxis::kChild, tags[2])});
      }
      if (!attribute.empty()) {
        XPathStep with_value = any_t0;
        XPathPredicate equals;
        equals.kind = XPathPredicate::Kind::kEquals;
        equals.path.steps.push_back(
            step(XPathAxis::kAttribute, NodeTestKind::kName, attribute));
        equals.literal = value;
        with_value.predicates.push_back(std::move(equals));
        path({with_value});
      }
      XPathStep first_t1 = named(XPathAxis::kChild, t1);
      XPathPredicate first;
      first.kind = XPathPredicate::Kind::kPosition;
      first.position = 1;
      first_t1.predicates.push_back(std::move(first));
      path({any_t0, first_t1});
    }
    StructuralIndex* index = (*reopened)->structural_index();
    for (const XPathPath& p : paths) {
      auto plain = EvaluateXPathStreaming(**reopened, p,
                                          /*allow_structural_index=*/false);
      index->InvalidateAll();
      auto cold = EvaluateXPathStreaming(**reopened, p);
      auto warm = EvaluateXPathStreaming(**reopened, p);
      if (!plain.ok() || !cold.ok() || !warm.ok()) {
        return {"xpath oracle evaluation of " + p.ToString() + " failed: " +
                (!plain.ok() ? plain.status()
                             : !cold.ok() ? cold.status() : warm.status())
                    .ToString()};
      }
      if (*cold != *plain || *warm != *plain) {
        return {"xpath structural-index divergence after recovery on " +
                p.ToString() + " (" + std::to_string(plain->size()) +
                " plain vs " + std::to_string(cold->size()) + " cold vs " +
                std::to_string(warm->size()) + " warm ids)"};
      }
    }
    Status interval_audit = (*reopened)->CheckIntegrity();
    if (!interval_audit.ok()) {
      return {"CheckIntegrity over warm structural index: " +
              interval_audit.ToString()};
    }
  }

  // Clean close checkpoints, so the next iteration tortures recovered,
  // re-persisted state.
  reopened->reset();
  return {};
}

}  // namespace

TortureReport RunTorture(const TortureOptions& options) {
  TortureReport report;
  const std::string path = options.dir + "/torture_store.laxml";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  StoreOptions oracle_opts;
  oracle_opts.pager.page_size = options.page_size;
  oracle_opts.pager.pool_frames = options.pool_frames;
  oracle_opts.max_range_bytes = 4096;
  // Cross-codec oracle (see TortureOptions::token_codec): the mirror
  // runs the codec the store under torture does NOT use.
  oracle_opts.token_codec = options.token_codec >= 2 ? 1 : 2;
  oracle_opts.paranoid_audit_interval = 0;
  auto oracle = Store::OpenInMemory(oracle_opts);
  if (!oracle.ok()) {
    report.error = "oracle open failed: " + oracle.status().ToString();
    return report;
  }

  for (uint32_t i = 0; i < options.iterations; ++i) {
    const uint64_t seed = MixSeed(options.seed, i);
    Schedule schedule;
    IterationResult result =
        RunIteration(options, path, seed, **oracle, &report, &schedule);
    ++report.iterations_run;
    if (options.verbose) {
      std::fprintf(stderr,
                   "iter %u seed %llu: %s (acked %llu, faults %llu)\n", i,
                   static_cast<unsigned long long>(seed),
                   result.ok() ? "ok" : result.error.c_str(),
                   static_cast<unsigned long long>(report.ops_acked),
                   static_cast<unsigned long long>(report.faults_fired));
    }
    if (!result.ok()) {
      report.error = result.error;
      report.failed_iteration = i;
      report.failed_seed = seed;
      report.failed_schedule =
          "armed fault: " + schedule.fault + "; crash cut: " + schedule.cut;
      return report;
    }
  }
  return report;
}

}  // namespace torture
}  // namespace laxml
