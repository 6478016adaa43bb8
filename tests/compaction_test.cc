// Range compaction tests: merging split remnants and micro-ranges,
// invariant preservation across all index modes, and the interaction
// with memoized locations.

#include <gtest/gtest.h>

#include "store/store.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "workload/op_stream.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::MustSerialize;

class CompactionTest
    : public ::testing::TestWithParam<testing::IndexConfig> {
 protected:
  std::unique_ptr<Store> Open(uint32_t max_range_bytes = 0) {
    StoreOptions options;
    GetParam().ApplyTo(&options);
    options.max_range_bytes = max_range_bytes;
    options.pager.page_size = 512;
    auto opened = Store::OpenInMemory(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).value();
  }
};

TEST_P(CompactionTest, MergesAppendFeedRanges) {
  auto store = Open();
  ASSERT_LAXML_OK(store->LoadXml("<log/>").status());
  for (int i = 0; i < 40; ++i) {
    ASSERT_LAXML_OK(
        store->InsertIntoLast(1, MustFragment("<e>" + std::to_string(i) +
                                              "</e>"))
            .status());
  }
  std::string before = *store->SerializeToXml();
  uint64_t ranges_before = store->range_manager().range_count();
  EXPECT_GT(ranges_before, 30u);

  ASSERT_OK_AND_ASSIGN(uint64_t merges, store->CompactRanges(1 << 16));
  EXPECT_GT(merges, 30u);
  EXPECT_LT(store->range_manager().range_count(), 5u);

  // Content identical, ids identical, invariants hold.
  EXPECT_EQ(*store->SerializeToXml(), before);
  ASSERT_LAXML_OK(store->CheckIntegrity());
  ASSERT_OK_AND_ASSIGN(TokenSequence e0, store->Read(2));
  EXPECT_EQ(MustSerialize(e0), "<e>0</e>");
}

TEST_P(CompactionTest, RespectsTargetBytes) {
  auto store = Open();
  ASSERT_LAXML_OK(store->LoadXml("<log/>").status());
  for (int i = 0; i < 30; ++i) {
    ASSERT_LAXML_OK(
        store->InsertIntoLast(1, MustFragment("<entry>0123456789</entry>"))
            .status());
  }
  ASSERT_OK_AND_ASSIGN(uint64_t merges, store->CompactRanges(128));
  (void)merges;
  bool ok = true;
  Status st = store->range_manager().ForEachRange(
      [&](const RangeMeta& meta) {
        if (meta.byte_len > 128 + 64) ok = false;  // one fragment slack
        return true;
      });
  ASSERT_LAXML_OK(st);
  EXPECT_TRUE(ok);
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST_P(CompactionTest, SkipsNonContiguousIdNeighbors) {
  auto store = Open();
  // Build interleaved id intervals: insert A, C then squeeze B between
  // them; B's ids do not continue A's.
  ASSERT_LAXML_OK(store->LoadXml("<l><a/><c/></l>").status());
  // a=2, c=3. Insert <b/> after <a/>: its id (4) is not contiguous with
  // the tail piece's interval.
  ASSERT_LAXML_OK(store->InsertAfter(2, MustFragment("<b/>")).status());
  std::string before = *store->SerializeToXml();
  ASSERT_OK_AND_ASSIGN(uint64_t merges, store->CompactRanges(1 << 16));
  (void)merges;  // some merges may be possible (id-less tails), some not
  EXPECT_EQ(*store->SerializeToXml(), before);
  ASSERT_LAXML_OK(store->CheckIntegrity());
  // Every node still locatable.
  for (NodeId id = 1; id <= 4; ++id) {
    EXPECT_TRUE(store->Exists(id)) << id;
    EXPECT_TRUE(store->Read(id).ok()) << id;
  }
}

TEST_P(CompactionTest, ReadsAfterCompactionUseFreshLocations) {
  auto store = Open();
  ASSERT_LAXML_OK(store->LoadXml("<l/>").status());
  for (int i = 0; i < 20; ++i) {
    ASSERT_LAXML_OK(
        store->InsertIntoLast(1, MustFragment("<x/>")).status());
  }
  // Warm memoized locations.
  for (NodeId id = 2; id <= 10; ++id) {
    ASSERT_LAXML_OK(store->Read(id).status());
  }
  ASSERT_LAXML_OK(store->CompactRanges(1 << 16).status());
  // Memoized offsets were invalidated; reads still correct.
  for (NodeId id = 2; id <= 21; ++id) {
    ASSERT_OK_AND_ASSIGN(TokenSequence x, store->Read(id));
    EXPECT_EQ(MustSerialize(x), "<x/>") << id;
  }
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST_P(CompactionTest, RandomWorkloadThenCompactionStaysEquivalent) {
  auto store = Open(/*max_range_bytes=*/96);
  Random rng(77);
  ASSERT_LAXML_OK(
      store->InsertTopLevel(GenerateRandomTree(&rng, 60, 5)).status());
  OpStreamGenerator ops(OpMix{}, 31);
  for (int round = 0; round < 120; ++round) {
    std::vector<NodeId> ids;
    auto all = store->ReadWithIds(&ids);
    ASSERT_TRUE(all.ok());
    std::vector<NodeId> elements, any;
    for (size_t i = 0; i < all->size(); ++i) {
      if (ids[i] == kInvalidNodeId) continue;
      any.push_back(ids[i]);
      if (all->at(i).CanHaveChildren()) elements.push_back(ids[i]);
    }
    Operation op = ops.Next(elements, any);
    switch (op.kind) {
      case Operation::Kind::kInsertIntoLast:
        (void)store->InsertIntoLast(op.target, op.fragment);
        break;
      case Operation::Kind::kInsertBefore:
        (void)store->InsertBefore(op.target, op.fragment);
        break;
      case Operation::Kind::kDelete:
        if (any.size() > 1) (void)store->DeleteNode(op.target);
        break;
      default:
        (void)store->Read(op.target);
        break;
    }
    if (round % 30 == 29) {
      // Compare token sequences (not serialized text): the random op
      // stream can legally produce data-model states that are not
      // serializable as XML (e.g. an element inserted before an
      // attribute node), which the serializer correctly refuses.
      ASSERT_OK_AND_ASSIGN(TokenSequence before, store->Read());
      std::vector<NodeId> before_ids;
      ASSERT_LAXML_OK(store->ReadWithIds(&before_ids).status());
      ASSERT_LAXML_OK(store->CompactRanges(512).status());
      ASSERT_OK_AND_ASSIGN(TokenSequence after, store->Read());
      std::vector<NodeId> after_ids;
      ASSERT_LAXML_OK(store->ReadWithIds(&after_ids).status());
      EXPECT_EQ(after, before) << "round " << round;
      EXPECT_EQ(after_ids, before_ids) << "round " << round;
      ASSERT_LAXML_OK(store->CheckIntegrity());
    }
  }
}

TEST_P(CompactionTest, EmptyAndSingleRangeStoresAreNoops) {
  auto store = Open();
  ASSERT_OK_AND_ASSIGN(uint64_t merges, store->CompactRanges(4096));
  EXPECT_EQ(merges, 0u);
  ASSERT_LAXML_OK(store->LoadXml("<one/>").status());
  ASSERT_OK_AND_ASSIGN(merges, store->CompactRanges(4096));
  EXPECT_EQ(merges, 0u);
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

// Compaction rewrites ranges like any mutation, so it passes the same
// gate: a fail-stopped store must not merge anything in memory.
TEST_P(CompactionTest, PoisonedStoreRefusesToMerge) {
  auto store = Open();
  ASSERT_LAXML_OK(store->LoadXml("<log/>").status());
  for (int i = 0; i < 10; ++i) {
    ASSERT_LAXML_OK(store->InsertIntoLast(1, MustFragment("<e/>")).status());
  }
  const uint64_t ranges_before = store->range_manager().range_count();
  ASSERT_GT(ranges_before, 5u);

  store->Poison(Status::IOError("injected: dead device"));
  auto merged = store->CompactRanges(1 << 16);
  EXPECT_TRUE(merged.status().IsPoisoned()) << merged.status().ToString();
  EXPECT_EQ(store->range_manager().range_count(), ranges_before);
}

INSTANTIATE_TEST_SUITE_P(AllIndexModes, CompactionTest,
                         ::testing::ValuesIn(testing::kIndexConfigs),
                         testing::IndexConfigName);

}  // namespace
}  // namespace laxml
