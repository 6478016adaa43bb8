// The paper's worked example (Section 4.5, Tables 2-4), executed
// verbatim against the store:
//
//   1. Insert 2 sibling nodes (100 nodes in total) on an empty source
//      -> one range, ids 1..100 (Table 2).
//   2. insertIntoLast(60, <<40 nodes>>)
//      -> locate 60 via the range index, split range 1 at the end token
//         of node 60, create range 2 with ids 101..140 (Table 3), and
//         memoize node 60's begin/end locations in the partial index
//         (Table 4).

#include <gtest/gtest.h>

#include "store/store.h"
#include "test_util.h"

namespace laxml {
namespace {

/// A fragment of exactly `n` element nodes: one wrapper with n-1
/// children.
TokenSequence NodesFragment(const std::string& name, int n) {
  SequenceBuilder b;
  b.BeginElement(name);
  for (int i = 0; i < n - 1; ++i) {
    b.BeginElement(name + std::to_string(i)).End();
  }
  b.End();
  return b.Build();
}

TEST(WorkedExampleTest, Section45Scenario) {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));

  // Step 1: two sibling nodes, 100 nodes total (50 + 50).
  TokenSequence step1 = NodesFragment("first", 50);
  TokenSequence second = NodesFragment("second", 50);
  step1.insert(step1.end(), second.begin(), second.end());
  ASSERT_OK_AND_ASSIGN(NodeId first_id, store->InsertTopLevel(step1));
  EXPECT_EQ(first_id, 1u);

  // Table 2: one range covering ids 1..100.
  EXPECT_EQ(store->range_index().size(), 1u);
  ASSERT_OK_AND_ASSIGN(auto entry1, store->range_index().LookupEntry(60));
  EXPECT_EQ(entry1.start_id, 1u);
  EXPECT_EQ(entry1.end_id, 100u);
  RangeId range1 = entry1.range_id;

  // The partial index is empty: inserting on an empty source created no
  // entries (paper Section 5, step 1).
  EXPECT_EQ(store->partial_index().size(), 0u);

  // Step 2: insert a child of 40 nodes as the last child of node 60.
  TokenSequence child = NodesFragment("child", 40);
  ASSERT_OK_AND_ASSIGN(NodeId new_first, store->InsertIntoLast(60, child));
  EXPECT_EQ(new_first, 101u);

  // Table 3: range 1 split — [1..k] stays in range 1, the new range
  // holds [101..140], and the split tail holds the rest of [..100].
  EXPECT_EQ(store->range_index().size(), 3u);
  ASSERT_OK_AND_ASSIGN(auto e60, store->range_index().LookupEntry(60));
  EXPECT_EQ(e60.range_id, range1);
  EXPECT_EQ(e60.start_id, 1u);
  ASSERT_OK_AND_ASSIGN(auto e101, store->range_index().LookupEntry(101));
  EXPECT_EQ(e101.start_id, 101u);
  EXPECT_EQ(e101.end_id, 140u);
  EXPECT_NE(e101.range_id, range1);
  ASSERT_OK_AND_ASSIGN(auto e100, store->range_index().LookupEntry(100));
  EXPECT_NE(e100.range_id, range1);
  EXPECT_NE(e100.range_id, e101.range_id);
  EXPECT_EQ(e100.end_id, 100u);

  // Table 4: the partial index memoized node 60's begin (in range 1)
  // and end (in the split tail, range "3").
  PartialEntry memo;
  ASSERT_TRUE(store->mutable_partial_index().Lookup(60, &memo));
  ASSERT_TRUE(memo.begin.has_value());
  EXPECT_EQ(memo.begin->range, range1);
  ASSERT_TRUE(memo.end.has_value());
  EXPECT_EQ(memo.end->range, e100.range_id);

  // Semantics: node 60's subtree now ends with the 40-node child.
  ASSERT_OK_AND_ASSIGN(TokenSequence subtree, store->Read(60));
  ASSERT_OK_AND_ASSIGN(size_t end, SubtreeEnd(subtree, 0));
  EXPECT_EQ(end, subtree.size());
  EXPECT_EQ(CountNodeBegins(subtree), 1u + 40u);

  ASSERT_LAXML_OK(store->CheckIntegrity());

  // The debug renderings match the tables' shape.
  std::string range_table = store->DebugRangeTable();
  EXPECT_NE(range_table.find("StartId"), std::string::npos);
  std::string partial_table = store->DebugPartialTable();
  EXPECT_NE(partial_table.find("60"), std::string::npos);
}

TEST(WorkedExampleTest, RepeatedLookupHitsPartialIndex) {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  ASSERT_LAXML_OK(store->InsertTopLevel(NodesFragment("n", 100)).status());

  // First read of node 60: a miss (counting scan); second: a hit.
  ASSERT_LAXML_OK(store->Read(60).status());
  uint64_t scans_after_first = store->stats().locate_scan_tokens;
  uint64_t hits_before = store->partial_index().stats().hits;
  ASSERT_LAXML_OK(store->Read(60).status());
  EXPECT_GT(store->partial_index().stats().hits, hits_before);
  // The second locate scanned nothing new.
  EXPECT_EQ(store->stats().locate_scan_tokens, scans_after_first);
}

TEST(WorkedExampleTest, InsertsAreRangesNotNodes) {
  // The store's index grows with *inserts*, not with node count — the
  // core of the paper's low-overhead claim.
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  ASSERT_LAXML_OK(store->InsertTopLevel(NodesFragment("bulk", 1000)).status());
  EXPECT_EQ(store->range_index().size(), 1u);
  EXPECT_EQ(store->live_node_count(), 1000u);
}

}  // namespace
}  // namespace laxml
