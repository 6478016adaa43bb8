// Shared-latch read-path stress: N reader threads serialize immutable
// oracle subtrees byte-for-byte while M writer threads mutate disjoint
// private subtrees — over the eager Full Index and over the lazy store
// with its Partial Index, whose read path (shared latch + sharded
// partial index + concurrent buffer pool) memoizes as it reads. Built
// to run under ThreadSanitizer (tests/CMakeLists.txt labels it
// `sanitizer`): any unsynchronized mutation a reader performs on
// shared engine state is a TSan report, and any torn read shows up as
// a byte-level mismatch vs the oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "concurrency/shared_store.h"
#include "index/structural_index.h"
#include "query/xpath_parser.h"
#include "query/xpath_stream.h"
#include "store/store.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::MustSerialize;

constexpr int kOracleSubtrees = 16;
constexpr int kReaders = 4;
constexpr int kWriters = 2;
constexpr int kWriterOps = 250;
constexpr int kMinReadsPerThread = 200;

void ReadersMatchOracleWhileWritersMutate(IndexMode mode) {
  StoreOptions options;
  options.index_mode = mode;
  ASSERT_OK_AND_ASSIGN(auto opened, Store::OpenInMemory(options));
  SharedStore shared(std::move(opened));

  // Single-threaded setup: oracle subtrees (never touched again) and
  // one private subtree per writer (only its owner mutates it).
  std::vector<NodeId> oracle_ids;
  std::vector<std::string> oracle_xml;
  std::vector<NodeId> writer_roots;
  {
    Store* store = shared.UnsafeStore();
    ASSERT_LAXML_OK(
        store->InsertTopLevel(MustFragment("<doc/>")).status());
    for (int i = 0; i < kOracleSubtrees; ++i) {
      ASSERT_OK_AND_ASSIGN(
          NodeId id,
          store->InsertIntoLast(
              1, MustFragment("<frozen i=\"" + std::to_string(i) +
                              "\"><a>alpha-" + std::to_string(i) +
                              "</a><b>beta-" + std::to_string(i) +
                              "</b></frozen>")));
      oracle_ids.push_back(id);
    }
    for (int w = 0; w < kWriters; ++w) {
      ASSERT_OK_AND_ASSIGN(
          NodeId id, store->InsertIntoLast(
                         1, MustFragment("<mine w=\"" + std::to_string(w) +
                                         "\"/>")));
      writer_roots.push_back(id);
    }
    // The oracle: what a single-threaded serialization of each frozen
    // subtree produces. Readers must reproduce these bytes exactly.
    for (NodeId id : oracle_ids) {
      ASSERT_OK_AND_ASSIGN(TokenSequence sub, store->Read(id));
      oracle_xml.push_back(MustSerialize(sub));
      ASSERT_FALSE(oracle_xml.back().empty());
    }
  }

  std::atomic<bool> writers_done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> reader_errors{0};
  std::atomic<int> writer_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Random rng(101 + r);
      long reads = 0;
      while (!writers_done.load(std::memory_order_acquire) ||
             reads < kMinReadsPerThread) {
        const size_t pick = rng.Uniform(kOracleSubtrees);
        auto sub = shared.Read(oracle_ids[pick]);
        if (!sub.ok()) {
          reader_errors.fetch_add(1);
          break;
        }
        auto xml = SerializeTokens(*sub);
        if (!xml.ok() || *xml != oracle_xml[pick]) {
          mismatches.fetch_add(1);
          break;
        }
        ++reads;
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(77 + w);
      std::vector<NodeId> children;
      for (int i = 0; i < kWriterOps; ++i) {
        if (!children.empty() && rng.Uniform(4) == 0) {
          // Delete a random child we inserted earlier: exercises range
          // rewrites and partial-index invalidation under readers.
          const size_t at = rng.Uniform(children.size());
          Status st = shared.DeleteNode(children[at]);
          if (!st.ok()) writer_errors.fetch_add(1);
          children.erase(children.begin() + static_cast<long>(at));
          continue;
        }
        auto id = shared.Apply(
            WalOp::kInsertIntoLast, writer_roots[w],
            MustFragment("<n i=\"" + std::to_string(i) + "\">payload-" +
                         std::to_string(w * kWriterOps + i) + "</n>"));
        if (!id.ok()) {
          writer_errors.fetch_add(1);
          continue;
        }
        children.push_back(*id);
      }
    });
  }

  for (auto& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(writer_errors.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0) << "a reader observed bytes differing "
                                     "from the single-threaded oracle";

  // The frozen subtrees are still byte-identical single-threaded, and
  // the whole store is invariant-clean after the storm.
  for (int i = 0; i < kOracleSubtrees; ++i) {
    ASSERT_OK_AND_ASSIGN(TokenSequence sub,
                         shared.UnsafeStore()->Read(oracle_ids[i]));
    EXPECT_EQ(MustSerialize(sub), oracle_xml[i]);
  }
  ASSERT_LAXML_OK(shared.UnsafeStore()->CheckIntegrity());
  // Readers really took the shared latch (the point of the exercise).
  EXPECT_GT(uint64_t{shared.stats().shared_acquisitions}, 0u);
}

TEST(SharedReadStressTest, ReadersMatchOracleWhileWritersMutate) {
  for (IndexMode mode : {IndexMode::kFullIndex, IndexMode::kRangeIndex}) {
    SCOPED_TRACE(IndexModeName(mode));
    ReadersMatchOracleWhileWritersMutate(mode);
  }
}

// Structural-index warming under the shared latch: readers run
// indexable XPath queries (which memoize posting lists — a logical
// read that WRITES StructuralIndex state under its own SharedMutex)
// concurrently with each other, while writers insert/delete and split
// ranges (invalidating the index under the exclusive latch). The
// queried tags live only in frozen subtrees, so every query has one
// correct answer no matter how the storm interleaves. TSan checks the
// index's internal latch discipline; the count checks catch any join
// over a stale numbering epoch.
TEST(SharedReadStressTest, StructuralWarmingRacesRangeSplits) {
  // Smaller knobs than the serialization storm above: every writer op
  // invalidates the whole index, so nearly every read here is a cold
  // warming scan over an ever-growing, finely-fragmented store — the
  // most expensive path in the engine. The interleavings TSan cares
  // about appear within a few hundred operations.
  constexpr int kIdxWriterOps = 80;
  constexpr int kIdxReadsPerThread = 2000;
  StoreOptions options;
  options.max_range_bytes = 96;  // writers split ranges constantly
  ASSERT_OK_AND_ASSIGN(auto opened, Store::OpenInMemory(options));
  SharedStore shared(std::move(opened));

  std::vector<NodeId> writer_roots;
  {
    Store* store = shared.UnsafeStore();
    ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<doc/>")).status());
    for (int i = 0; i < kOracleSubtrees; ++i) {
      ASSERT_LAXML_OK(
          store
              ->InsertIntoLast(
                  1, MustFragment("<frozen i=\"" + std::to_string(i) +
                                  "\"><a>alpha</a><b>beta</b></frozen>"))
              .status());
    }
    for (int w = 0; w < kWriters; ++w) {
      ASSERT_OK_AND_ASSIGN(
          NodeId id, store->InsertIntoLast(
                         1, MustFragment("<mine w=\"" + std::to_string(w) +
                                         "\"/>")));
      writer_roots.push_back(id);
    }
  }

  // Writers never touch these tags, so the answers are storm-invariant.
  struct Query {
    const char* expr;
    size_t expect;
  };
  const Query kQueries[] = {
      {"//frozen", kOracleSubtrees},
      {"//frozen//a", kOracleSubtrees},
      {"//frozen/b", kOracleSubtrees},
      {"/doc/frozen/a", kOracleSubtrees},
      {"//absent", 0},
      // Value keys: a text leaf's text by arithmetic, an inline value,
      // and a mixed element's string value read by a walk of its
      // subtree.
      {"//frozen/a/text()", kOracleSubtrees},
      {"//frozen[a='alpha']", kOracleSubtrees},
      {"/doc[frozen='alphabeta']", 1},
  };
  std::vector<XPathPath> paths;
  for (const Query& q : kQueries) {
    auto path = ParseXPath(q.expr);
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    // The gate accepts the whole path: warm, it joins with no scan.
    ASSERT_EQ(StructuralIneligibilityReason(*path), nullptr) << q.expr;
    paths.push_back(*std::move(path));
  }

  std::atomic<int> wrong_counts{0};
  std::atomic<int> reader_errors{0};
  std::atomic<int> writer_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Random rng(4242 + r);
      // A fixed read budget, NOT "until the writers finish": these
      // reads are long scans, and back-to-back shared holds can starve
      // the writers on a reader-preferring rwlock — coupling reader
      // termination to writer progress would deadlock the test. The
      // yield opens writer windows for the same reason.
      for (int reads = 0; reads < kIdxReadsPerThread; ++reads) {
        const size_t pick = rng.Uniform(paths.size());
        auto ids = shared.WithShared([&](Store& s) {
          return EvaluateXPathStreaming(s, paths[pick]);
        });
        if (!ids.ok()) {
          reader_errors.fetch_add(1);
          break;
        }
        if (ids->size() != kQueries[pick].expect) {
          wrong_counts.fetch_add(1);
          break;
        }
        // A real off-latch gap every few reads: back-to-back shared
        // holds from several readers never leave the rwlock free, and
        // the glibc rwlock prefers readers — without the gap the
        // writers are starved for the whole reader phase.
        if (reads % 16 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        } else if (reads % 4 == 0) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(9 + w);
      std::vector<NodeId> children;
      for (int i = 0; i < kIdxWriterOps; ++i) {
        if (!children.empty() && rng.Uniform(4) == 0) {
          const size_t at = rng.Uniform(children.size());
          Status st = shared.DeleteNode(children[at]);
          if (!st.ok()) writer_errors.fetch_add(1);
          children.erase(children.begin() + static_cast<long>(at));
          continue;
        }
        // Big enough to overflow the 96-byte range cap: every insert
        // exercises the SplitRange seam.
        auto id = shared.Apply(
            WalOp::kInsertIntoLast, writer_roots[w],
            MustFragment("<n i=\"" + std::to_string(i) +
                         "\">payload-payload-payload-payload-" +
                         std::to_string(w * kWriterOps + i) + "</n>"));
        if (!id.ok()) {
          writer_errors.fetch_add(1);
          continue;
        }
        children.push_back(*id);
      }
    });
  }

  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(writer_errors.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(wrong_counts.load(), 0)
      << "an indexed query answered from a stale numbering epoch";

  // The index really worked during the storm (some joins hit), and the
  // surviving memoized intervals cross-check against a fresh scan.
  const StructuralIndexStats& stats =
      shared.UnsafeStore()->structural_index()->stats();
  EXPECT_GT(uint64_t{stats.misses}, 0u);
  EXPECT_GT(uint64_t{stats.invalidations}, 0u);
  ASSERT_LAXML_OK(shared.UnsafeStore()->CheckIntegrity());
  EXPECT_GT(uint64_t{shared.stats().shared_acquisitions}, 0u);
}

}  // namespace
}  // namespace laxml
