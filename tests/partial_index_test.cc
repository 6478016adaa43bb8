// Partial (lazy) index tests: memoization, the cache half of its
// personality (LRU, bounded capacity), and the index half (invalidation
// on range mutations).

#include "index/partial_index.h"

#include <gtest/gtest.h>

#include "xml/token_codec.h"

namespace laxml {
namespace {

TEST(PartialIndexTest, StartsEmptyAndMisses) {
  PartialIndex index(16);
  PartialEntry e;
  EXPECT_FALSE(index.Lookup(1, &e));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.stats().lookups, 1u);
  EXPECT_EQ(index.stats().hits, 0u);
}

TEST(PartialIndexTest, RecordsBeginAndEndIndependently) {
  PartialIndex index(16);
  index.RecordBegin(60, /*range=*/1, /*offset=*/120, /*token=*/7, /*codec=*/kTokenCodecV1);
  PartialEntry e;
  ASSERT_TRUE(index.Lookup(60, &e));
  EXPECT_TRUE(e.has_begin);
  EXPECT_FALSE(e.has_end);
  EXPECT_EQ(e.begin_range, 1u);
  EXPECT_EQ(e.begin_offset, 120u);
  index.RecordEnd(60, /*range=*/3, /*offset=*/0, /*token=*/0,
                  /*begins_before=*/0, /*codec=*/kTokenCodecV1);
  ASSERT_TRUE(index.Lookup(60, &e));
  EXPECT_TRUE(e.has_begin);
  EXPECT_TRUE(e.has_end);
  EXPECT_EQ(e.end_range, 3u);
}

TEST(PartialIndexTest, ZeroCapacityDisablesEverything) {
  PartialIndex index(0);
  EXPECT_FALSE(index.enabled());
  index.RecordBegin(1, 1, 0, 0, /*codec=*/kTokenCodecV1);
  PartialEntry e;
  EXPECT_FALSE(index.Lookup(1, &e));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.stats().lookups, 0u);  // disabled lookups don't count
}

TEST(PartialIndexTest, LruEvictionAtCapacity) {
  PartialIndex index(4);
  for (NodeId id = 1; id <= 4; ++id) {
    index.RecordBegin(id, 1, static_cast<uint32_t>(id), 0, /*codec=*/kTokenCodecV1);
  }
  EXPECT_EQ(index.size(), 4u);
  // Touch 1 so it is most recent; inserting 5 evicts 2 (the LRU).
  PartialEntry e;
  EXPECT_TRUE(index.Lookup(1, &e));
  index.RecordBegin(5, 1, 5, 0, /*codec=*/kTokenCodecV1);
  EXPECT_EQ(index.size(), 4u);
  EXPECT_TRUE(index.Lookup(1, &e));
  EXPECT_FALSE(index.Lookup(2, &e));
  EXPECT_TRUE(index.Lookup(5, &e));
  EXPECT_GE(index.stats().evictions, 1u);
}

TEST(PartialIndexTest, InvalidateRangeDropsStaleHalves) {
  PartialIndex index(16);
  index.RecordBegin(60, 1, 100, 5, /*codec=*/kTokenCodecV1);
  index.RecordEnd(60, 3, 0, 0, 0, /*codec=*/kTokenCodecV1);
  index.RecordBegin(70, 1, 200, 9, /*codec=*/kTokenCodecV1);
  // Range 1 split: every offset into it is stale.
  index.InvalidateRange(1);
  PartialEntry e60;
  ASSERT_TRUE(index.Lookup(60, &e60));  // survives: end half is range 3
  EXPECT_FALSE(e60.has_begin);
  EXPECT_TRUE(e60.has_end);
  PartialEntry e70;
  EXPECT_FALSE(index.Lookup(70, &e70));  // fully stale, dropped
}

TEST(PartialIndexTest, InvalidateRangeWithBothHalvesInIt) {
  PartialIndex index(16);
  index.RecordBegin(5, 2, 10, 1, /*codec=*/kTokenCodecV1);
  index.RecordEnd(5, 2, 90, 8, 3, /*codec=*/kTokenCodecV1);
  index.InvalidateRange(2);
  PartialEntry e;
  EXPECT_FALSE(index.Lookup(5, &e));
  EXPECT_EQ(index.size(), 0u);
}

TEST(PartialIndexTest, InvalidateSingleNode) {
  PartialIndex index(16);
  index.RecordBegin(1, 1, 0, 0, /*codec=*/kTokenCodecV1);
  index.RecordBegin(2, 1, 10, 1, /*codec=*/kTokenCodecV1);
  index.Invalidate(1);
  PartialEntry e;
  EXPECT_FALSE(index.Lookup(1, &e));
  EXPECT_TRUE(index.Lookup(2, &e));
}

TEST(PartialIndexTest, ReRecordingUnderNewRange) {
  PartialIndex index(16);
  index.RecordBegin(60, 1, 100, 5, /*codec=*/kTokenCodecV1);
  // After a split the node begins range 4 at offset 0.
  index.RecordBegin(60, 4, 0, 0, /*codec=*/kTokenCodecV1);
  PartialEntry e;
  ASSERT_TRUE(index.Lookup(60, &e));
  EXPECT_EQ(e.begin_range, 4u);
  // Invalidating the old range must not kill the fresh entry.
  index.InvalidateRange(1);
  ASSERT_TRUE(index.Lookup(60, &e));
  EXPECT_TRUE(e.has_begin);
  EXPECT_EQ(e.begin_range, 4u);
}

TEST(PartialIndexTest, ClearResetsEverything) {
  PartialIndex index(16);
  index.RecordBegin(1, 1, 0, 0, /*codec=*/kTokenCodecV1);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  PartialEntry e;
  EXPECT_FALSE(index.Lookup(1, &e));
}

TEST(PartialIndexTest, TableStringShape) {
  // Paper Table 4: node 60 with begin in range 1, end in range 3.
  PartialIndex index(16);
  index.RecordBegin(60, 1, 0, 0, /*codec=*/kTokenCodecV1);
  index.RecordEnd(60, 3, 0, 0, 0, /*codec=*/kTokenCodecV1);
  std::string table = index.ToTableString();
  EXPECT_NE(table.find("NodeID"), std::string::npos);
  EXPECT_NE(table.find("60  1  3"), std::string::npos);
}

TEST(PartialIndexTest, HitRateAccounting) {
  PartialIndex index(16);
  index.RecordBegin(1, 1, 0, 0, /*codec=*/kTokenCodecV1);
  PartialEntry e;
  (void)index.Lookup(1, &e);
  (void)index.Lookup(1, &e);
  (void)index.Lookup(2, &e);
  EXPECT_EQ(index.stats().lookups, 3u);
  EXPECT_EQ(index.stats().hits, 2u);
}

TEST(PartialIndexTest, LargeCapacityShardsTheTable) {
  // Production-sized capacities stripe across shards; behaviour is the
  // same, only the lock granularity changes.
  PartialIndex index(1 << 16);
  EXPECT_EQ(index.shard_count(), PartialIndex::kNumShards);
  for (NodeId id = 1; id <= 1000; ++id) {
    index.RecordBegin(id, 1, static_cast<uint32_t>(id), 0, /*codec=*/kTokenCodecV1);
  }
  EXPECT_EQ(index.size(), 1000u);
  PartialEntry e;
  for (NodeId id = 1; id <= 1000; ++id) {
    ASSERT_TRUE(index.Lookup(id, &e));
    EXPECT_EQ(e.begin_offset, id);
  }
  index.InvalidateRange(1);
  EXPECT_EQ(index.size(), 0u);
}

TEST(PartialIndexTest, SmallCapacityStaysSingleSharded) {
  // Exact global LRU (the worked example's Table 4 semantics) needs one
  // shard; small capacities keep it.
  PartialIndex index(64);
  EXPECT_EQ(index.shard_count(), 1u);
}

}  // namespace
}  // namespace laxml
