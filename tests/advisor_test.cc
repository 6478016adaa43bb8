// Advisor tests: each workload shape yields the matching
// recommendation.

#include "store/advisor.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/zipf.h"

namespace laxml {
namespace {

using testing::MustFragment;

std::unique_ptr<Store> LazyStore(size_t partial_capacity = 4096) {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeWithPartial;
  options.partial_index_capacity = partial_capacity;
  auto opened = Store::OpenInMemory(options);
  EXPECT_TRUE(opened.ok());
  return std::move(opened).value();
}

void BulkOrders(Store* store, int orders) {
  ASSERT_LAXML_OK(store->LoadXml("<orders/>").status());
  for (int i = 0; i < orders; ++i) {
    ASSERT_LAXML_OK(
        store
            ->InsertIntoLast(
                1, MustFragment("<o><a>1</a><b>2</b><c>3</c></o>"))
            .status());
  }
}

TEST(AdvisorTest, UpdateHeavyWorkloadStaysLazy) {
  auto store = LazyStore();
  BulkOrders(store.get(), 300);
  AdvisorReport report = AdviseConfiguration(*store);
  EXPECT_EQ(report.recommended_mode, IndexMode::kRangeWithPartial);
  EXPECT_GT(report.update_fraction, 0.9);
  EXPECT_FALSE(report.rationale.empty());
}

TEST(AdvisorTest, ColdRandomReadsSuggestFullIndex) {
  auto store = LazyStore();
  BulkOrders(store.get(), 200);
  // One bulk load (1 update op) then many non-repeating reads with long
  // locate scans: the eager index would amortize.
  for (NodeId id = 2; id <= 800; ++id) {
    (void)store->Read(id);
  }
  AdvisorReport report = AdviseConfiguration(*store);
  // Note: every id read once -> partial hit rate stays low; the bulk
  // ranges are coarse -> scans are long.
  EXPECT_LT(report.update_fraction, 0.5);
  if (report.locate_tokens_per_read > 64 && report.partial_hit_rate < 0.5 &&
      report.update_fraction < 0.01) {
    EXPECT_EQ(report.recommended_mode, IndexMode::kFullIndex);
  }
  EXPECT_GT(report.locate_tokens_per_read, 0);
}

TEST(AdvisorTest, RepeatingReadsStayLazyWithMemo) {
  auto store = LazyStore();
  BulkOrders(store.get(), 100);
  // Hot-set reads: memoization pays, stay lazy.
  for (int pass = 0; pass < 20; ++pass) {
    for (NodeId id = 2; id <= 20; ++id) {
      ASSERT_LAXML_OK(store->Read(id).status());
    }
  }
  AdvisorReport report = AdviseConfiguration(*store);
  EXPECT_EQ(report.recommended_mode, IndexMode::kRangeWithPartial);
  EXPECT_GT(report.partial_hit_rate, 0.5);
}

TEST(AdvisorTest, ThrashingPartialIndexGrows) {
  auto store = LazyStore(/*partial_capacity=*/16);
  BulkOrders(store.get(), 150);
  // Working set far beyond 16 entries: constant eviction.
  ZipfGenerator zipf(500, 0.2, 9);
  for (int i = 0; i < 2000; ++i) {
    (void)store->Read(2 + zipf.Next());
  }
  AdvisorReport report = AdviseConfiguration(*store);
  EXPECT_GT(report.recommended_partial_capacity, 16u);
}

TEST(AdvisorTest, FragmentedStoreGetsCompactionAdvice) {
  auto store = LazyStore();
  ASSERT_LAXML_OK(store->LoadXml("<l/>").status());
  for (int i = 0; i < 200; ++i) {
    ASSERT_LAXML_OK(store->InsertIntoLast(1, MustFragment("<t/>")).status());
  }
  AdvisorReport report = AdviseConfiguration(*store);
  EXPECT_TRUE(report.recommend_compaction);
  EXPECT_GT(report.compaction_target_bytes, 0u);
  // Following the advice reduces the range count drastically.
  ASSERT_OK_AND_ASSIGN(uint64_t merges,
                       store->CompactRanges(report.compaction_target_bytes));
  EXPECT_GT(merges, 100u);
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST(AdvisorTest, EmptyStoreGivesDefaults) {
  auto store = LazyStore();
  AdvisorReport report = AdviseConfiguration(*store);
  EXPECT_EQ(report.recommended_mode, IndexMode::kRangeWithPartial);
  EXPECT_FALSE(report.recommend_compaction);
  EXPECT_EQ(report.update_fraction, 0);
}

}  // namespace
}  // namespace laxml
