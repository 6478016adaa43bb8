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
  index.Record(60, PartialEntry::kBegin,
               {/*range=*/1, /*offset=*/120, /*token_index=*/7,
                /*begins_before=*/0, kTokenCodecV1});
  PartialEntry e;
  ASSERT_TRUE(index.Lookup(60, &e));
  EXPECT_TRUE(e.begin.has_value());
  EXPECT_FALSE(e.end.has_value());
  EXPECT_EQ(e.begin->range, 1u);
  EXPECT_EQ(e.begin->offset, 120u);
  index.Record(60, PartialEntry::kEnd,
               {/*range=*/3, /*offset=*/0, /*token_index=*/0,
                /*begins_before=*/0, kTokenCodecV1});
  ASSERT_TRUE(index.Lookup(60, &e));
  EXPECT_TRUE(e.begin.has_value());
  EXPECT_TRUE(e.end.has_value());
  EXPECT_EQ(e.end->range, 3u);
}

TEST(PartialIndexTest, ZeroCapacityDisablesEverything) {
  PartialIndex index(0);
  EXPECT_FALSE(index.enabled());
  index.Record(1, PartialEntry::kBegin, {1, 0, 0, 0, kTokenCodecV1});
  PartialEntry e;
  EXPECT_FALSE(index.Lookup(1, &e));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.stats().lookups, 0u);  // disabled lookups don't count
}

TEST(PartialIndexTest, LruEvictionAtCapacity) {
  PartialIndex index(4);
  for (NodeId id = 1; id <= 4; ++id) {
    index.Record(id, PartialEntry::kBegin,
                 {1, static_cast<uint32_t>(id), 0, 0, kTokenCodecV1});
  }
  EXPECT_EQ(index.size(), 4u);
  // Touch 1 so it is most recent; inserting 5 evicts 2 (the LRU).
  PartialEntry e;
  EXPECT_TRUE(index.Lookup(1, &e));
  index.Record(5, PartialEntry::kBegin, {1, 5, 0, 0, kTokenCodecV1});
  EXPECT_EQ(index.size(), 4u);
  EXPECT_TRUE(index.Lookup(1, &e));
  EXPECT_FALSE(index.Lookup(2, &e));
  EXPECT_TRUE(index.Lookup(5, &e));
  EXPECT_GE(index.stats().evictions, 1u);
}

TEST(PartialIndexTest, InvalidateRangeDropsStaleHalves) {
  PartialIndex index(16);
  index.Record(60, PartialEntry::kBegin, {1, 100, 5, 0, kTokenCodecV1});
  index.Record(60, PartialEntry::kEnd, {3, 0, 0, 0, kTokenCodecV1});
  index.Record(70, PartialEntry::kBegin, {1, 200, 9, 0, kTokenCodecV1});
  // Range 1 split: every offset into it is stale.
  index.InvalidateRange(1);
  PartialEntry e60;
  ASSERT_TRUE(index.Lookup(60, &e60));  // survives: end half is range 3
  EXPECT_FALSE(e60.begin.has_value());
  EXPECT_TRUE(e60.end.has_value());
  PartialEntry e70;
  EXPECT_FALSE(index.Lookup(70, &e70));  // fully stale, dropped
}

TEST(PartialIndexTest, InvalidateRangeWithBothHalvesInIt) {
  PartialIndex index(16);
  index.Record(5, PartialEntry::kBegin, {2, 10, 1, 0, kTokenCodecV1});
  index.Record(5, PartialEntry::kEnd, {2, 90, 8, 3, kTokenCodecV1});
  index.InvalidateRange(2);
  PartialEntry e;
  EXPECT_FALSE(index.Lookup(5, &e));
  EXPECT_EQ(index.size(), 0u);
}

TEST(PartialIndexTest, InvalidateSingleNode) {
  PartialIndex index(16);
  index.Record(1, PartialEntry::kBegin, {1, 0, 0, 0, kTokenCodecV1});
  index.Record(2, PartialEntry::kBegin, {1, 10, 1, 0, kTokenCodecV1});
  index.Invalidate(1);
  PartialEntry e;
  EXPECT_FALSE(index.Lookup(1, &e));
  EXPECT_TRUE(index.Lookup(2, &e));
}

TEST(PartialIndexTest, ReRecordingUnderNewRange) {
  PartialIndex index(16);
  index.Record(60, PartialEntry::kBegin, {1, 100, 5, 0, kTokenCodecV1});
  // After a split the node begins range 4 at offset 0.
  index.Record(60, PartialEntry::kBegin, {4, 0, 0, 0, kTokenCodecV1});
  PartialEntry e;
  ASSERT_TRUE(index.Lookup(60, &e));
  EXPECT_EQ(e.begin->range, 4u);
  // Invalidating the old range must not kill the fresh entry.
  index.InvalidateRange(1);
  ASSERT_TRUE(index.Lookup(60, &e));
  EXPECT_TRUE(e.begin.has_value());
  EXPECT_EQ(e.begin->range, 4u);
}

TEST(PartialIndexTest, ClearResetsEverything) {
  PartialIndex index(16);
  index.Record(1, PartialEntry::kBegin, {1, 0, 0, 0, kTokenCodecV1});
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  PartialEntry e;
  EXPECT_FALSE(index.Lookup(1, &e));
}

TEST(PartialIndexTest, TableStringShape) {
  // Paper Table 4: node 60 with begin in range 1, end in range 3.
  PartialIndex index(16);
  index.Record(60, PartialEntry::kBegin, {1, 0, 0, 0, kTokenCodecV1});
  index.Record(60, PartialEntry::kEnd, {3, 0, 0, 0, kTokenCodecV1});
  std::string table = index.ToTableString();
  EXPECT_NE(table.find("NodeID"), std::string::npos);
  EXPECT_NE(table.find("60  1  3"), std::string::npos);
}

TEST(PartialIndexTest, HitRateAccounting) {
  PartialIndex index(16);
  index.Record(1, PartialEntry::kBegin, {1, 0, 0, 0, kTokenCodecV1});
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
    index.Record(id, PartialEntry::kBegin,
                 {1, static_cast<uint32_t>(id), 0, 0, kTokenCodecV1});
  }
  EXPECT_EQ(index.size(), 1000u);
  PartialEntry e;
  for (NodeId id = 1; id <= 1000; ++id) {
    ASSERT_TRUE(index.Lookup(id, &e));
    EXPECT_EQ(e.begin->offset, id);
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
