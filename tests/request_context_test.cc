// Tests for the per-request accounting context (obs/request_context):
// thread-local install/uninstall and nesting, attribution through the
// LAXML_RC_* macros, the engine hooks (cursor tokens, buffer-pool
// pins/misses, WAL bytes, index hits) actually crediting the installed
// context — a path the structural-index gate refuses scans like the
// forced scan and touches no index counter, and store reads credit the
// tokens their cursor walks — and the counters' JSON rendering.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "common/random.h"
#include "concurrency/shared_store.h"
#include "index/structural_index.h"
#include "obs/request_context.h"
#include "query/xpath_eval.h"
#include "query/xpath_parser.h"
#include "query/xpath_stream.h"
#include "store/store.h"
#include "test_util.h"
#include "workload/doc_generator.h"

namespace laxml {
namespace obs {
namespace {

using laxml::testing::MustFragment;

#if !defined(LAXML_TRACING_DISABLED)

TEST(RequestContext, InstallNestRestore) {
  EXPECT_EQ(CurrentRequestContext(), nullptr);
  EXPECT_EQ(CurrentTraceId(), 0u);
  RequestContext outer;
  outer.trace_id = 7;
  {
    ScopedRequestContext a(&outer);
    EXPECT_EQ(CurrentRequestContext(), &outer);
    EXPECT_EQ(CurrentTraceId(), 7u);
    RequestContext inner;
    inner.trace_id = 9;
    {
      ScopedRequestContext b(&inner);
      EXPECT_EQ(CurrentRequestContext(), &inner);
      EXPECT_EQ(CurrentTraceId(), 9u);
      LAXML_RC_ADD(tokens_scanned, 3);
    }
    EXPECT_EQ(CurrentRequestContext(), &outer);
    EXPECT_EQ(inner.counters.tokens_scanned, 3u);
    EXPECT_EQ(outer.counters.tokens_scanned, 0u);
  }
  EXPECT_EQ(CurrentRequestContext(), nullptr);
}

TEST(RequestContext, MacrosAreNoOpsWithoutContext) {
  // Must not crash or leak into a later context.
  LAXML_RC_ADD(pages_pinned, 5);
  LAXML_RC_SET_PLAN("stream-scan");
  RequestContext rc;
  ScopedRequestContext scoped(&rc);
  EXPECT_EQ(rc.counters.pages_pinned, 0u);
  EXPECT_EQ(rc.plan, nullptr);
}

TEST(RequestContext, ContextIsPerThread) {
  RequestContext rc;
  ScopedRequestContext scoped(&rc);
  RequestContext* seen_on_other_thread = &rc;
  std::thread t([&] { seen_on_other_thread = CurrentRequestContext(); });
  t.join();
  EXPECT_EQ(seen_on_other_thread, nullptr);
  EXPECT_EQ(CurrentRequestContext(), &rc);
}

TEST(RequestContext, LatchWaitHelpersSkipClockWithoutContext) {
  EXPECT_EQ(RequestLatchWaitBegin(), 0u);
  RequestLatchWaitEnd(0);  // no-op, no crash

  RequestContext rc;
  ScopedRequestContext scoped(&rc);
  const uint64_t begin = RequestLatchWaitBegin();
  EXPECT_GT(begin, 0u);
  RequestLatchWaitEnd(begin);
  // Wall time passed is tiny but non-negative; the field moved or
  // stayed zero, never underflowed.
  EXPECT_LT(rc.counters.latch_wait_us, 1000000u);
}

TEST(RequestContext, QueryExecutionAttributesWork) {
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(StoreOptions{}));
  ASSERT_LAXML_OK(store
                      ->InsertTopLevel(MustFragment(
                          "<a><b>one</b><b>two</b><c>three</c></a>"))
                      .status());

  RequestContext cold;
  {
    ScopedRequestContext scoped(&cold);
    XPathEvaluator eval(store.get());
    ASSERT_LAXML_OK(eval.Evaluate("//a//b").status());
  }
  // The cold pass scanned tokens and missed the structural index.
  EXPECT_GT(cold.counters.tokens_scanned, 0u);
  EXPECT_EQ(cold.counters.structural_index_misses, 1u);
  EXPECT_EQ(cold.counters.structural_index_hits, 0u);
  ASSERT_NE(cold.plan, nullptr);
  EXPECT_STREQ(cold.plan, "stream-scan");

  RequestContext warm;
  {
    ScopedRequestContext scoped(&warm);
    XPathEvaluator eval(store.get());
    ASSERT_LAXML_OK(eval.Evaluate("//a//b").status());
  }
  EXPECT_EQ(warm.counters.structural_index_hits, 1u);
  ASSERT_NE(warm.plan, nullptr);
  EXPECT_STREQ(warm.plan, "structural-join");
  // The join never touches the token stream.
  EXPECT_EQ(warm.counters.tokens_scanned, 0u);
}

TEST(RequestContext, ScanCreditsEveryTokenOnce) {
  // The cursor decodes headers only and strings on demand; either way
  // each token is scanned, and credited, exactly once.
  StoreOptions options;
  options.max_range_bytes = 64;  // several ranges
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  ASSERT_LAXML_OK(store
                      ->InsertTopLevel(MustFragment(
                          "<a k=\"v\"><b>one</b><b>two</b><!--c-->"
                          "<c><b>three</b></c></a>"))
                      .status());
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  for (const char* expr : {"//*", "//b/text()", "//a[c/b='three']/@k"}) {
    RequestContext rc;
    {
      ScopedRequestContext scoped(&rc);
      XPathEvaluator eval(store.get());
      ASSERT_LAXML_OK(eval.Evaluate(expr).status());
    }
    EXPECT_EQ(rc.counters.tokens_scanned, all.size()) << expr;
    ASSERT_NE(rc.plan, nullptr);
    EXPECT_STREQ(rc.plan, "stream-scan");
  }
}

TEST(RequestContext, RefusedPathScansAndTouchesNoIndexCounter) {
  // The gate refuses //b//text(), so it is a plain scan, cold or warm:
  // it reads, and credits, every token (nothing in it is dead: '//b'
  // stays armed everywhere), exactly like the forced scan, and it looks
  // up, warms and counts nothing in the structural index.
  StoreOptions options;
  options.max_range_bytes = 64;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  ASSERT_LAXML_OK(store
                      ->InsertTopLevel(MustFragment(
                          "<a k=\"v\"><b>one</b><b>two</b><!--c-->"
                          "<c><b>three</b><d>four</d></c></a>"))
                      .status());
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  ASSERT_OK_AND_ASSIGN(XPathPath path, ParseXPath("//b//text()"));

  RequestContext forced;
  {
    ScopedRequestContext scoped(&forced);
    ASSERT_OK_AND_ASSIGN(auto ids,
                         EvaluateXPathStreaming(*store, path,
                                                /*allow_structural_index=*/
                                                false));
    EXPECT_EQ(ids.size(), 3u);
  }
  ASSERT_NE(forced.plan, nullptr);
  EXPECT_STREQ(forced.plan, "stream-scan");
  EXPECT_EQ(forced.counters.tokens_scanned, all.size());

  const StructuralIndex& index = *store->structural_index();
  auto run_refused = [&](const char* when) {
    const size_t warmed = index.warmed_tags();
    const uint64_t hits = index.stats().hits;
    const uint64_t misses = index.stats().misses;
    for (int run = 0; run < 2; ++run) {
      RequestContext rc;
      {
        ScopedRequestContext scoped(&rc);
        ASSERT_OK_AND_ASSIGN(auto ids, EvaluateXPathStreaming(*store, path));
        EXPECT_EQ(ids.size(), 3u) << when;
      }
      ASSERT_NE(rc.plan, nullptr) << when;
      EXPECT_STREQ(rc.plan, "stream-scan") << when << " run " << run;
      EXPECT_EQ(rc.counters.tokens_scanned, forced.counters.tokens_scanned)
          << when << " run " << run;
      EXPECT_EQ(rc.counters.structural_index_hits, 0u) << when;
      EXPECT_EQ(rc.counters.structural_index_misses, 0u) << when;
    }
    EXPECT_EQ(index.warmed_tags(), warmed) << when;
    EXPECT_EQ(index.stats().hits, hits) << when;
    EXPECT_EQ(index.stats().misses, misses) << when;
  };
  run_refused("cold");
  EXPECT_EQ(index.warmed_tags(), 0u);
  // A warm <b> list changes nothing for it.
  ASSERT_LAXML_OK(EvaluateXPathStreaming(*store, "//b").status());
  ASSERT_EQ(index.warmed_tags(), 1u);
  run_refused("with //b warm");

  // //b/text() is a join: each <b> is a text leaf, so its text node's
  // ordinal and id come from the posting, and no token is read.
  RequestContext joined;
  {
    ScopedRequestContext scoped(&joined);
    ASSERT_OK_AND_ASSIGN(auto ids, EvaluateXPathStreaming(*store,
                                                          "//b/text()"));
    EXPECT_EQ(ids.size(), 3u);
  }
  ASSERT_NE(joined.plan, nullptr);
  EXPECT_STREQ(joined.plan, "structural-join");
  EXPECT_EQ(joined.counters.tokens_scanned, 0u);
}

TEST(RequestContext, StoreReadsCreditTheTokensTheyWalk) {
  // Store::Read and Read(id) walk the range chain through TokenCursor,
  // which decodes every stored token and credits each once: a full read
  // credits every token, and a Read(id) its subtree's tokens, whether
  // its begin and end are memoized or not. A locate scan adds the
  // headers before the begin token, which the walk then starts from.
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(StoreOptions()));
  ASSERT_LAXML_OK(store
                      ->InsertTopLevel(MustFragment(
                          "<a k=\"v\"><b>one</b><b>two</b><!--c-->"
                          "<c><b>three</b><d>four</d></c></a>"))
                      .status());
  std::vector<NodeId> ids;
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->ReadWithIds(&ids));
  auto subtree_of = [&](const char* name) {
    size_t begin = 0;
    while (begin < all.size() &&
           !(all[begin].type == TokenType::kBeginElement &&
             all[begin].name == name)) {
      ++begin;
    }
    EXPECT_LT(begin, all.size()) << name;
    return std::make_pair(ids[begin], SubtreeEnd(all, begin).value() - begin);
  };

  RequestContext full;
  {
    ScopedRequestContext scoped(&full);
    ASSERT_LAXML_OK(store->Read().status());
  }
  EXPECT_EQ(full.counters.tokens_scanned,
            store->range_manager().total_tokens());
  EXPECT_EQ(full.counters.tokens_scanned, all.size());

  // Begin memoized by a locate, end not yet: the subtree, no more.
  const auto [c, c_tokens] = subtree_of("c");
  ASSERT_LAXML_OK(store->Describe(c).status());
  RequestContext cold;
  {
    ScopedRequestContext scoped(&cold);
    ASSERT_OK_AND_ASSIGN(TokenSequence got, store->Read(c));
    EXPECT_EQ(got.size(), c_tokens);
  }
  EXPECT_EQ(cold.counters.tokens_scanned, c_tokens);

  RequestContext warm;
  {
    ScopedRequestContext scoped(&warm);
    ASSERT_LAXML_OK(store->Read(c).status());
  }
  EXPECT_EQ(warm.counters.tokens_scanned, c_tokens);

  // Nothing memoized: the locate scan's headers, then the subtree.
  const auto [b, b_tokens] = subtree_of("b");
  const uint64_t located_before = store->stats().locate_scan_tokens;
  RequestContext colder;
  {
    ScopedRequestContext scoped(&colder);
    ASSERT_LAXML_OK(store->Read(b).status());
  }
  const uint64_t located = store->stats().locate_scan_tokens - located_before;
  EXPECT_GT(located, 0u);
  EXPECT_EQ(colder.counters.tokens_scanned, located - 1 + b_tokens);
}

TEST(RequestContext, WalBytesAttributedThroughSharedStore) {
  testing::TempFile db("rc_wal");
  StoreOptions options;
  options.enable_wal = true;
  ASSERT_OK_AND_ASSIGN(auto opened, Store::Open(db.path(), options));
  SharedStore shared(std::move(opened));

  RequestContext rc;
  {
    ScopedRequestContext scoped(&rc);
    ASSERT_LAXML_OK(shared
                        .Apply(WalOp::kInsertTopLevel, kInvalidNodeId,
                               MustFragment("<doc>payload</doc>"))
                        .status());
  }
  EXPECT_GT(rc.counters.wal_bytes, 0u);

  // A second mutation outside any context credits nobody.
  const uint64_t before = rc.counters.wal_bytes;
  ASSERT_LAXML_OK(shared
                      .Apply(WalOp::kInsertTopLevel, kInvalidNodeId,
                             MustFragment("<doc>more</doc>"))
                      .status());
  EXPECT_EQ(rc.counters.wal_bytes, before);
}

TEST(RequestContext, PostingsReadIsTheSelectedEntriesOnTheAuctionDeck) {
  // The predicate-free queries of the auction deck are answered by the
  // path summary, which visits exactly the entries it selects: the
  // answer, or the parents of a final text(). A cold run scans and
  // reads no postings.
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(StoreOptions{}));
  Random rng(1);
  ASSERT_LAXML_OK(
      store->InsertTopLevel(GenerateAuctionDocument(&rng, 200)).status());
  const char* const deck[] = {
      "//item//name",
      "/site/people/person/name",
      "//open_auction/bidder/increase",
      "/site/regions/*/item",
      "//bidder/personref/text()",
      "//item/@category",
  };
  for (const char* expr : deck) {
    ASSERT_OK_AND_ASSIGN(XPathPath path, ParseXPath(expr));
    RequestContext cold;
    {
      ScopedRequestContext scoped(&cold);
      ASSERT_LAXML_OK(EvaluateXPathStreaming(*store, path).status());
    }
    EXPECT_EQ(cold.counters.postings_read, 0u) << expr;
    ASSERT_OK_AND_ASSIGN(XPathAccessPlan plan, PlanXPath(*store, path));
    ASSERT_TRUE(plan.entries.has_value()) << expr;
    EXPECT_GT(plan.summary_paths, 0u) << expr;
    RequestContext warm;
    {
      ScopedRequestContext scoped(&warm);
      ASSERT_OK_AND_ASSIGN(std::vector<NodeId> ids,
                           EvaluateXPathStreaming(*store, path));
      if (path.steps.back().test != NodeTestKind::kText) {
        EXPECT_EQ(ids.size(), plan.entries->size()) << expr;
      }
    }
    EXPECT_STREQ(warm.plan, "structural-join") << expr;
    EXPECT_GT(warm.counters.postings_read, 0u) << expr;
    EXPECT_EQ(warm.counters.postings_read, plan.entries->size()) << expr;
  }
}

#endif  // !defined(LAXML_TRACING_DISABLED)

TEST(RequestCounters, AppendJsonShape) {
  RequestCounters c;
  c.tokens_scanned = 1;
  c.pages_pinned = 2;
  c.pages_missed = 3;
  c.latch_wait_us = 4;
  c.wal_bytes = 5;
  c.partial_index_hits = 6;
  c.partial_index_misses = 7;
  c.structural_index_hits = 8;
  c.structural_index_misses = 9;
  c.postings_read = 10;
  std::string out;
  c.AppendJson(&out);
  EXPECT_EQ(out,
            "{\"tokens_scanned\":1,\"pages_pinned\":2,\"pages_missed\":3,"
            "\"latch_wait_us\":4,\"wal_bytes\":5,\"partial_index_hits\":6,"
            "\"partial_index_misses\":7,\"structural_index_hits\":8,"
            "\"structural_index_misses\":9,\"postings_read\":10}");
}

}  // namespace
}  // namespace obs
}  // namespace laxml
