// Split and granularity edge cases: subtrees spanning many ranges,
// granular range caps, huge text nodes (overflow records), deep
// nesting, and end-token scans crossing range boundaries.

#include <gtest/gtest.h>

#include <algorithm>

#include "store/store.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::MustSerialize;

std::unique_ptr<Store> OpenStore(IndexMode mode, uint32_t max_range_bytes) {
  StoreOptions options;
  options.index_mode = mode;
  options.max_range_bytes = max_range_bytes;
  options.pager.page_size = 512;
  options.pager.pool_frames = 64;
  auto opened = Store::OpenInMemory(options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

// A token's range and its index there, from range metadata alone.
struct TokenSpot {
  RangeId range = kInvalidRangeId;
  uint32_t index = 0;
  uint32_t range_tokens = 0;
};

// The exact headers a memo-less locate of `id` reads: its begin range
// from the first token through the begin token; for a scope, also the
// rest of that range and the end range's head through the end token.
// The ranges in between are passed on their depth profile, unread.
// `end` receives the end token's spot.
uint64_t ExpectedLocateHeaders(Store* store, NodeId id, TokenSpot* end) {
  std::vector<NodeId> ids;
  auto tokens = store->ReadWithIds(&ids);
  EXPECT_TRUE(tokens.ok());
  std::vector<TokenSpot> spots;
  const RangeManager& ranges = store->range_manager();
  for (RangeId r = ranges.first_range(); r != kInvalidRangeId;) {
    auto meta = ranges.GetMeta(r);
    EXPECT_TRUE(meta.ok());
    if (!meta.ok()) return 0;
    for (uint32_t i = 0; i < meta->token_count; ++i) {
      spots.push_back({r, i, meta->token_count});
    }
    r = meta->next;
  }
  EXPECT_EQ(spots.size(), tokens->size());
  size_t b = std::find(ids.begin(), ids.end(), id) - ids.begin();
  EXPECT_LT(b, ids.size()) << "node " << id;
  if (b >= ids.size() || spots.size() != tokens->size()) return 0;
  const TokenSpot& begin = spots[b];
  *end = begin;
  uint64_t headers = begin.index + 1;
  if (!(*tokens)[b].OpensScope()) return headers;
  auto after_end = SubtreeEnd(*tokens, b);
  EXPECT_TRUE(after_end.ok());
  *end = spots[*after_end - 1];
  if (end->range == begin.range) return headers + end->index - begin.index;
  return headers + (begin.range_tokens - begin.index - 1) + end->index + 1;
}

// Runs `op` and checks it read exactly ExpectedLocateHeaders(id).
template <typename Op>
void ExpectLocateReads(Store* store, NodeId id, Op op,
                       TokenSpot* end = nullptr) {
  TokenSpot spot;
  uint64_t expected = ExpectedLocateHeaders(store, id, &spot);
  if (end != nullptr) *end = spot;
  uint64_t before = store->stats().locate_scan_tokens;
  ASSERT_LAXML_OK(op());
  EXPECT_EQ(store->stats().locate_scan_tokens - before, expected)
      << "node " << id;
}

TEST(StoreSplitTest, GranularCapCutsInsertsIntoManyRanges) {
  auto store = OpenStore(IndexMode::kRangeWithPartial, 64);
  SequenceBuilder b;
  b.BeginElement("list");
  for (int i = 0; i < 100; ++i) {
    b.LeafElement("item", "payload " + std::to_string(i));
  }
  b.End();
  ASSERT_LAXML_OK(store->InsertTopLevel(b.Build()).status());
  // With a 64-byte cap, one bulk insert became many ranges.
  EXPECT_GT(store->range_manager().range_count(), 20u);
  ASSERT_LAXML_OK(store->CheckIntegrity());
  // And every node is still reachable.
  for (NodeId id = 1; id <= store->node_high_water(); ++id) {
    EXPECT_TRUE(store->Exists(id)) << id;
  }
  ASSERT_OK_AND_ASSIGN(TokenSequence item, store->Read(2));
  EXPECT_EQ(MustSerialize(item), "<item>payload 0</item>");
}

TEST(StoreSplitTest, SubtreeSpanningManyRangesReadsWhole) {
  auto store = OpenStore(IndexMode::kRangeIndex, 48);
  SequenceBuilder b;
  b.BeginElement("doc");
  b.BeginElement("big");
  for (int i = 0; i < 60; ++i) {
    b.LeafElement("row", std::string(20, 'r'));
  }
  b.End();
  b.LeafElement("after", "x");
  b.End();
  ASSERT_LAXML_OK(store->InsertTopLevel(b.Build()).status());
  // Node 2 is <big>: its end-token scan crosses many ranges.
  ASSERT_OK_AND_ASSIGN(TokenSequence big, store->Read(2));
  EXPECT_EQ(CountNodeBegins(big), 1u + 120u);  // big + 60*(row+text)
  EXPECT_EQ(big.front().name, "big");
  EXPECT_EQ(big.back().type, TokenType::kEndElement);
}

TEST(StoreSplitTest, HugeTextNodeOverflowsPages) {
  auto store = OpenStore(IndexMode::kRangeWithPartial, 0);
  std::string huge(20000, 'H');  // 40 pages at 512B
  SequenceBuilder b;
  b.BeginElement("blob").Text(huge).End();
  ASSERT_LAXML_OK(store->InsertTopLevel(b.Build()).status());
  ASSERT_OK_AND_ASSIGN(TokenSequence text, store->Read(2));
  ASSERT_EQ(text.size(), 1u);
  EXPECT_EQ(text[0].value, huge);
  // Insert into the element whose payload overflows: forces a split of
  // an overflow-backed range.
  ASSERT_LAXML_OK(
      store->InsertIntoLast(1, MustFragment("<tail/>")).status());
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  EXPECT_EQ(CountNodeBegins(all), 3u);
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST(StoreSplitTest, RepeatedMiddleInsertsFragmentRanges) {
  auto store = OpenStore(IndexMode::kRangeWithPartial, 0);
  ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<l><m/></l>")).status());
  // Keep inserting before <m/> (id 2): each op splits at the same spot.
  for (int i = 0; i < 50; ++i) {
    ASSERT_LAXML_OK(store
                        ->InsertBefore(2, MustFragment("<x>" +
                                                       std::to_string(i) +
                                                       "</x>"))
                        .status());
  }
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  // l, 50 * (x + text), m.
  EXPECT_EQ(CountNodeBegins(all), 2u + 100u);
  // <m/> must still be the LAST child.
  ASSERT_OK_AND_ASSIGN(TokenSequence m, store->Read(2));
  EXPECT_EQ(MustSerialize(m), "<m/>");
  EXPECT_EQ(all[all.size() - 3].name, "m");
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST(StoreSplitTest, DeleteSubtreeSpanningRanges) {
  auto store = OpenStore(IndexMode::kRangeWithPartial, 0);
  ASSERT_LAXML_OK(
      store->InsertTopLevel(MustFragment("<r><victim/><keep/></r>"))
          .status());
  // Grow <victim> (id 2) across several insert units.
  for (int i = 0; i < 10; ++i) {
    ASSERT_LAXML_OK(
        store->InsertIntoLast(2, MustFragment("<part/>")).status());
  }
  uint64_t ranges_before = store->range_manager().range_count();
  EXPECT_GT(ranges_before, 3u);
  ASSERT_LAXML_OK(store->DeleteNode(2));
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  EXPECT_EQ(MustSerialize(all), "<r><keep/></r>");
  EXPECT_LT(store->range_manager().range_count(), ranges_before);
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST(StoreSplitTest, DeepNestingSurvivesAllOperations) {
  auto store = OpenStore(IndexMode::kRangeWithPartial, 128);
  ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<d0/>")).status());
  NodeId target = 1;
  std::vector<NodeId> chain{1};
  for (int depth = 1; depth <= 60; ++depth) {
    ASSERT_OK_AND_ASSIGN(
        target, store->InsertIntoLast(
                    target, MustFragment("<d" + std::to_string(depth) +
                                         "/>")));
    chain.push_back(target);
  }
  // Read at several depths.
  ASSERT_OK_AND_ASSIGN(TokenSequence mid, store->Read(chain[30]));
  EXPECT_EQ(CountNodeBegins(mid), 31u);
  // Delete a middle of the chain: everything below goes too.
  ASSERT_LAXML_OK(store->DeleteNode(chain[40]));
  EXPECT_FALSE(store->Exists(chain[41]));
  EXPECT_TRUE(store->Exists(chain[39]));
  ASSERT_OK_AND_ASSIGN(TokenSequence after, store->Read(chain[0]));
  EXPECT_EQ(CountNodeBegins(after), 40u);
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST(StoreSplitTest, ReplaceContentAcrossRanges) {
  auto store = OpenStore(IndexMode::kRangeIndex, 0);
  ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<cfg/>")).status());
  for (int i = 0; i < 12; ++i) {
    ASSERT_LAXML_OK(
        store->InsertIntoLast(1, MustFragment("<old/>")).status());
  }
  EXPECT_GT(store->range_manager().range_count(), 3u);
  ASSERT_LAXML_OK(
      store->ReplaceContent(1, MustFragment("<fresh/>")).status());
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  EXPECT_EQ(MustSerialize(all), "<cfg><fresh/></cfg>");
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST(StoreSplitTest, RangeCountMatchesInsertPattern) {
  // The range count is the store's adaptive footprint: one bulk load ->
  // 1 range; k middle inserts -> O(k) ranges (insert unit + splits).
  auto store = OpenStore(IndexMode::kRangeWithPartial, 0);
  ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<r><hub/></r>")).status());
  EXPECT_EQ(store->range_manager().range_count(), 1u);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_LAXML_OK(
        store->InsertIntoLast(2, MustFragment("<s/>")).status());
  }
  // Each InsertIntoLast after the first adds one range (the payload);
  // the first also split the original.
  uint64_t count = store->range_manager().range_count();
  EXPECT_GE(count, 6u);
  EXPECT_LE(count, 8u);
}

TEST(StoreSplitTest, LocateReadsOnlyTheEdgeRangesOfASubtree) {
  // kRangeIndex memoizes nothing, so every locate below scans.
  auto store = OpenStore(IndexMode::kRangeIndex, 48);
  SequenceBuilder b;
  b.BeginElement("doc");
  b.BeginElement("big");
  for (int i = 0; i < 60; ++i) {
    b.LeafElement("row", std::string(20, 'r'));
  }
  b.End();
  b.LeafElement("after", "x");
  b.End();
  ASSERT_OK_AND_ASSIGN(NodeId root, store->InsertTopLevel(b.Build()));
  ASSERT_GT(store->range_manager().range_count(), 20u);

  ExpectLocateReads(store.get(), root, [&] {
    return store->InsertIntoLast(root, MustFragment("<tail/>"));
  });
  // The insert left the root's end token heading a range.
  TokenSpot root_end;
  ExpectLocateReads(
      store.get(), root,
      [&] { return store->InsertIntoLast(root, MustFragment("<tail/>")); },
      &root_end);
  EXPECT_EQ(root_end.index, 0u);
  // <big> spans most of the chain; only its two edge ranges are read.
  ExpectLocateReads(store.get(), root + 1,
                    [&] { return store->DeleteNode(root + 1); });
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  EXPECT_EQ(MustSerialize(all),
            "<doc><after>x</after><tail/><tail/></doc>");
  EXPECT_LAXML_OK(store->CheckIntegrity());
}

TEST(StoreSplitTest, LocateEndsOfAttributesAndRangeHeadingEndTokens) {
  auto store = OpenStore(IndexMode::kRangeIndex, 48);
  // Ids: doc 1, e 2, @a 3, @bb 4, text 5, f 6.
  ASSERT_LAXML_OK(store->LoadXml("<doc><e a=\"1\" bb=\"22222222\">"
                                 "some text here</e><f/></doc>")
                      .status());
  // An attribute's end token directly follows its begin.
  ExpectLocateReads(store.get(), 3, [&] { return store->DeleteNode(3); });
  TokenSequence attr{Token::BeginAttribute("c", "3"), Token::EndAttribute()};
  ExpectLocateReads(store.get(), 4,
                    [&] { return store->ReplaceNode(4, attr); });
  // InsertIntoLast cuts the chain before </e>, which then heads a range.
  ASSERT_LAXML_OK(store->InsertIntoLast(2, MustFragment("<g/>")).status());
  TokenSpot e_end;
  ExpectLocateReads(
      store.get(), 2, [&] { return store->DeleteNode(2); }, &e_end);
  EXPECT_EQ(e_end.index, 0u);
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  EXPECT_EQ(MustSerialize(all), "<doc><f/></doc>");
  EXPECT_LAXML_OK(store->CheckIntegrity());
}

}  // namespace
}  // namespace laxml
