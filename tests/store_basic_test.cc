// End-to-end smoke tests of the Store over all three index modes:
// bootstrap inserts, reads by id, the Table-1 update operations, and
// invariant checks after each step.

#include "store/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "obs/request_context.h"
#include "store/cursor.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::MustSerialize;

class StoreBasicTest
    : public ::testing::TestWithParam<testing::IndexConfig> {
 protected:
  void SetUp() override {
    StoreOptions options;
    GetParam().ApplyTo(&options);
    options.pager.pool_frames = 64;
    auto opened = Store::OpenInMemory(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    store_ = std::move(opened).value();
  }

  std::unique_ptr<Store> store_;
};

TEST_P(StoreBasicTest, EmptyStoreReadsEmpty) {
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_TRUE(all.empty());
  EXPECT_TRUE(store_->FirstTopLevelId().status().IsNotFound());
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, InsertTopLevelAndReadBack) {
  TokenSequence doc = MustFragment(
      "<ticket><hour>15</hour><name>Paul</name></ticket>");
  ASSERT_OK_AND_ASSIGN(NodeId root, store_->InsertTopLevel(doc));
  EXPECT_EQ(root, 1u);

  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(MustSerialize(all),
            "<ticket><hour>15</hour><name>Paul</name></ticket>");
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, IdsAssignedInDocumentOrder) {
  // Figure 1 of the paper: ticket=1, hour=2, "15"=3, name=4, "Paul"=5.
  ASSERT_LAXML_OK(store_->InsertTopLevel(
      MustFragment("<ticket><hour>15</hour><name>Paul</name></ticket>")));
  std::vector<NodeId> ids;
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->ReadWithIds(&ids));
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(ids[0], 1u);  // <ticket>
  EXPECT_EQ(ids[1], 2u);  // <hour>
  EXPECT_EQ(ids[2], 3u);  // "15"
  EXPECT_EQ(ids[3], kInvalidNodeId);  // </hour>
  EXPECT_EQ(ids[4], 4u);  // <name>
  EXPECT_EQ(ids[5], 5u);  // "Paul"
  EXPECT_EQ(ids[6], kInvalidNodeId);  // </name>
  EXPECT_EQ(ids[7], kInvalidNodeId);  // </ticket>
}

TEST_P(StoreBasicTest, ReadSubtreeById) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(
      MustFragment("<ticket><hour>15</hour><name>Paul</name></ticket>")));
  ASSERT_OK_AND_ASSIGN(TokenSequence hour, store_->Read(2));
  EXPECT_EQ(MustSerialize(hour), "<hour>15</hour>");
  ASSERT_OK_AND_ASSIGN(TokenSequence text, store_->Read(3));
  EXPECT_EQ(text.size(), 1u);
  EXPECT_EQ(text[0].value, "15");
}

TEST_P(StoreBasicTest, InsertIntoLastAppendsChild) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<orders><o>1</o></orders>")));
  ASSERT_OK_AND_ASSIGN(NodeId added,
                       store_->InsertIntoLast(1, MustFragment("<o>2</o>")));
  EXPECT_GT(added, 3u);
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(MustSerialize(all), "<orders><o>1</o><o>2</o></orders>");
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, InsertIntoFirstPrependsChild) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<orders><o>1</o></orders>")));
  ASSERT_LAXML_OK(
      store_->InsertIntoFirst(1, MustFragment("<o>0</o>")).status());
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(MustSerialize(all), "<orders><o>0</o><o>1</o></orders>");
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, InsertBeforeAndAfterSiblings) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<l><b/></l>")));
  // <b/> is node 2.
  ASSERT_LAXML_OK(store_->InsertBefore(2, MustFragment("<a/>")).status());
  ASSERT_LAXML_OK(store_->InsertAfter(2, MustFragment("<c/>")).status());
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(MustSerialize(all), "<l><a/><b/><c/></l>");
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, DeleteNodeRemovesSubtree) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(
      MustFragment("<r><a><x/><y/></a><b/></r>")));
  // r=1 a=2 x=3 y=4 b=5.
  ASSERT_LAXML_OK(store_->DeleteNode(2));
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(MustSerialize(all), "<r><b/></r>");
  EXPECT_FALSE(store_->Exists(2));
  EXPECT_FALSE(store_->Exists(3));
  EXPECT_FALSE(store_->Exists(4));
  EXPECT_TRUE(store_->Exists(5));
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, ReplaceNodeSwapsSubtree) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<r><old>gone</old><keep/></r>")));
  ASSERT_OK_AND_ASSIGN(
      NodeId fresh, store_->ReplaceNode(2, MustFragment("<new>here</new>")));
  EXPECT_GT(fresh, 0u);
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(MustSerialize(all), "<r><new>here</new><keep/></r>");
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, ReplaceContentKeepsNode) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<cfg><a/><b/></cfg>")));
  ASSERT_LAXML_OK(
      store_->ReplaceContent(1, MustFragment("<c/>")).status());
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(MustSerialize(all), "<cfg><c/></cfg>");
  EXPECT_TRUE(store_->Exists(1));
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, ReplaceContentWithEmptyClears) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<cfg><a/><b/></cfg>")));
  ASSERT_LAXML_OK(store_->ReplaceContent(1, {}).status());
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(MustSerialize(all), "<cfg/>");
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, InsertIntoTextNodeFails) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<a>text</a>")));
  // Node 2 is the text node.
  EXPECT_TRUE(store_->InsertIntoLast(2, MustFragment("<x/>"))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(store_->InsertIntoFirst(2, MustFragment("<x/>"))
                  .status()
                  .IsInvalidArgument());
}

// Apply's per-kind argument rules: no checkpoint "mutation", no
// fragment on a delete, no target on a top-level insert, and an empty
// fragment only for ReplaceContent. None of them journals or changes
// anything.
TEST_P(StoreBasicTest, ApplyRejectsMalformedCalls) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<a><b/></a>")));
  const TokenSequence frag = MustFragment("<x/>");
  EXPECT_TRUE(store_->Apply(WalOp::kCheckpoint, kInvalidNodeId, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      store_->Apply(WalOp::kDeleteNode, 2, frag).status().IsInvalidArgument());
  EXPECT_TRUE(store_->Apply(WalOp::kInsertTopLevel, 1, frag)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      store_->Apply(WalOp::kInsertAfter, 2, {}).status().IsInvalidArgument());
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(MustSerialize(all), "<a><b/></a>");
  EXPECT_EQ(store_->stats().inserts, 1u);
}

TEST_P(StoreBasicTest, UnknownIdIsNotFound) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<a/>")));
  EXPECT_TRUE(store_->Read(99).status().IsNotFound());
  EXPECT_TRUE(store_->DeleteNode(99).IsNotFound());
  EXPECT_FALSE(store_->Exists(99));
}

TEST_P(StoreBasicTest, DeletedIdStaysDead) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<r><a/><b/></r>")));
  ASSERT_LAXML_OK(store_->DeleteNode(2));
  EXPECT_TRUE(store_->Read(2).status().IsNotFound());
  // New inserts never reuse the id.
  ASSERT_OK_AND_ASSIGN(NodeId fresh,
                       store_->InsertIntoLast(1, MustFragment("<c/>")));
  EXPECT_NE(fresh, 2u);
}

TEST_P(StoreBasicTest, ManySiblingAppends) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<orders/>")));
  for (int i = 0; i < 200; ++i) {
    ASSERT_LAXML_OK(
        store_->InsertIntoLast(
                  1, MustFragment("<o>" + std::to_string(i) + "</o>"))
            .status());
  }
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  // 200 <o> elements * 3 tokens + 2 for <orders>.
  EXPECT_EQ(all.size(), 200u * 3 + 2);
  ASSERT_LAXML_OK(store_->CheckIntegrity());
  // Spot-check a middle order's subtree.
  ASSERT_OK_AND_ASSIGN(TokenSequence mid, store_->Read(2 + 2 * 100));
  EXPECT_EQ(MustSerialize(mid), "<o>100</o>");
}

TEST_P(StoreBasicTest, ScansOfADriftingStoreAskForOneBlockSize) {
  // A full scan sizes its output once, rounded up to a power of two, so
  // scans of a store whose size drifts ask the allocator for blocks of
  // one size and can reuse each other's freed memory.
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<orders/>")));
  for (int i = 0; i < 100; ++i) {
    ASSERT_LAXML_OK(
        store_->InsertIntoLast(1, MustFragment("<o>x</o>")).status());
  }
  std::vector<NodeId> ids;
  ASSERT_OK_AND_ASSIGN(TokenSequence before, store_->ReadWithIds(&ids));
  ASSERT_EQ(before.size(), 100u * 3 + 2);
  EXPECT_EQ(before.capacity(), 512u);
  EXPECT_EQ(ids.capacity(), 512u);
  ASSERT_LAXML_OK(
      store_->InsertIntoLast(1, MustFragment("<o>y</o>")).status());
  ASSERT_OK_AND_ASSIGN(TokenSequence after, store_->Read());
  ASSERT_EQ(after.size(), 101u * 3 + 2);
  EXPECT_EQ(after.capacity(), before.capacity());
}

TEST_P(StoreBasicTest, NestedInsertDeepens) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<t/>")));
  NodeId target = 1;
  for (int depth = 0; depth < 30; ++depth) {
    ASSERT_OK_AND_ASSIGN(target,
                         store_->InsertIntoLast(target,
                                                MustFragment("<n/>")));
  }
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(all.size(), 2u + 30 * 2);
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, CursorStreamsWholeStore) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(
      MustFragment("<a><b>x</b></a>")));
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<c/>")));
  auto cursor = store_->NewCursor();
  ASSERT_LAXML_OK(cursor->SeekToFirst());
  std::vector<std::pair<NodeId, TokenType>> seen;
  while (cursor->Valid()) {
    seen.emplace_back(cursor->node_id(), cursor->token().type);
    ASSERT_LAXML_OK(cursor->Next());
  }
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen[0].first, 1u);
  EXPECT_EQ(seen[1].first, 2u);
  EXPECT_EQ(seen[2].first, 3u);
  EXPECT_EQ(seen[3].first, kInvalidNodeId);
  EXPECT_EQ(seen[5].first, 4u);  // <c/> begin
  EXPECT_EQ(seen[5].second, TokenType::kBeginElement);
  EXPECT_EQ(seen[6].first, kInvalidNodeId);  // </c>
  EXPECT_EQ(seen[6].second, TokenType::kEndElement);
}

TEST_P(StoreBasicTest, DescribeReturnsBeginToken) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<a href=\"x\">t</a>")));
  ASSERT_OK_AND_ASSIGN(Token a, store_->Describe(1));
  EXPECT_EQ(a.type, TokenType::kBeginElement);
  EXPECT_EQ(a.name, "a");
  ASSERT_OK_AND_ASSIGN(Token attr, store_->Describe(2));
  EXPECT_EQ(attr.type, TokenType::kBeginAttribute);
  EXPECT_EQ(attr.name, "href");
  EXPECT_EQ(attr.value, "x");
}

TEST_P(StoreBasicTest, ReadAfterMemoizedBeginKeepsSplitsExact) {
  // Ids: r 1, x 2, a 3, b 4, text 5, c 6, all in one range. Describe
  // memoizes only <a>'s begin, two node begins into the range. Read
  // seeks there, regenerating ids from the memo's own begin count, and
  // memoizes <a>'s end, whose count of earlier node begins must be
  // exact: InsertAfter splits the range there.
  ASSERT_LAXML_OK(
      store_->LoadXml("<r><x/><a><b/>text</a><c/></r>").status());
  ASSERT_LAXML_OK(store_->Describe(3).status());
  const bool memoizes = GetParam().memoizes();
  if (memoizes) {
    PartialEntry memo;
    ASSERT_TRUE(store_->mutable_partial_index().Lookup(3, &memo));
    ASSERT_TRUE(memo.begin && !memo.end);
    EXPECT_EQ(memo.begin->begins_before, 2u);
  }
  ASSERT_OK_AND_ASSIGN(TokenSequence a, store_->Read(3));
  EXPECT_EQ(MustSerialize(a), "<a><b/>text</a>");
  EXPECT_LAXML_OK(store_->CheckIntegrity());
  // With both halves memoized, the inserts locate without scanning.
  const uint64_t scanned = store_->stats().locate_scan_tokens;
  ASSERT_LAXML_OK(store_->InsertAfter(3, MustFragment("<z/>")).status());
  ASSERT_LAXML_OK(store_->InsertIntoLast(3, MustFragment("<y/>")).status());
  if (memoizes) {
    EXPECT_EQ(store_->stats().locate_scan_tokens, scanned);
  }
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store_->Read());
  EXPECT_EQ(MustSerialize(all), "<r><x/><a><b/>text<y/></a><z/><c/></r>");
  ASSERT_OK_AND_ASSIGN(TokenSequence c, store_->Read(6));
  EXPECT_EQ(MustSerialize(c), "<c/>");
  EXPECT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(StoreBasicTest, FragmentValidationRejectsGarbage) {
  ASSERT_LAXML_OK(store_->InsertTopLevel(MustFragment("<a/>")));
  TokenSequence unbalanced{Token::BeginElement("x")};
  EXPECT_TRUE(store_->InsertIntoLast(1, unbalanced)
                  .status()
                  .IsInvalidArgument());
  TokenSequence doc_token{Token::BeginDocument(), Token::EndDocument()};
  EXPECT_TRUE(store_->InsertIntoLast(1, doc_token)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      store_->InsertIntoLast(1, {}).status().IsInvalidArgument());
  // End tokens are bare: nothing reads their name or value, and a
  // memo-hit Read(id) pins only kMaxClosingTokenBytes past a closing
  // token's start.
  Token named_end = Token::EndElement();
  named_end.name = "x";
  TokenSequence named{Token::BeginElement("x"), named_end};
  EXPECT_TRUE(store_->InsertIntoLast(1, named).status().IsInvalidArgument());
}

// The tokens of node `id`'s subtree, cut out of a full scan.
TokenSequence ScanSlice(Store* store, NodeId id) {
  std::vector<NodeId> ids;
  auto all = store->ReadWithIds(&ids);
  EXPECT_TRUE(all.ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != id) continue;
    auto end = SubtreeEnd(*all, i);
    EXPECT_TRUE(end.ok());
    return TokenSequence(all->begin() + i, all->begin() + *end);
  }
  ADD_FAILURE() << "node " << id << " not in the scan";
  return {};
}

TEST(StoreMemoReadTest, MemoHitIsOneLookupAndOneSlice) {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  // r 1, a 2, b 3, "x" 4, c 5, d 6.
  ASSERT_LAXML_OK(store->LoadXml("<r><a><b>x</b><c/></a><d/></r>").status());
  ASSERT_OK_AND_ASSIGN(TokenSequence first, store->Read(2));  // memoizes
  const PartialIndexStats& memo = store->partial_index().stats();
  const RecordStoreStats& records =
      store->range_manager().range_records()->stats();
  const uint64_t lookups = memo.lookups;
  const uint64_t hits = memo.hits;
  const uint64_t reads = records.reads;
  ASSERT_OK_AND_ASSIGN(TokenSequence again, store->Read(2));
  EXPECT_EQ(MustSerialize(again), "<a><b>x</b><c/></a>");
  EXPECT_EQ(again, first);
  EXPECT_EQ(memo.lookups - lookups, 1u);
  EXPECT_EQ(memo.hits - hits, 1u);
  EXPECT_EQ(records.reads - reads, 1u);
  EXPECT_LAXML_OK(store->CheckIntegrity());
}

TEST(StoreMemoReadTest, MemoHitChecksTheMemoizedEnd) {
  // Unbounded ranges put the whole document in one inline range, so the
  // begin and end memos share it; 16-byte ranges put them in different
  // ranges, and the read walks across the range boundaries between.
  for (uint32_t max_range_bytes : {0u, 16u}) {
    SCOPED_TRACE("max_range_bytes " + std::to_string(max_range_bytes));
    StoreOptions options;
    options.index_mode = IndexMode::kRangeIndex;
    options.max_range_bytes = max_range_bytes;
    ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
    // r 1, a 2, b 3, "x" 4, c 5, d 6.
    ASSERT_LAXML_OK(
        store->LoadXml("<r><a><b>x</b><c/></a><d/></r>").status());
    PartialIndex& memo = store->mutable_partial_index();
    PartialEntry r, a, b;
    for (NodeId id : {NodeId{1}, NodeId{2}, NodeId{3}}) {
      ASSERT_LAXML_OK(store->Read(id).status());
    }
    ASSERT_TRUE(memo.Lookup(1, &r) && r.end);
    ASSERT_TRUE(memo.Lookup(2, &a) && a.begin && a.end);
    ASSERT_TRUE(memo.Lookup(3, &b) && b.end);
    EXPECT_EQ(a.begin->range == a.end->range, max_range_bytes == 0);
    // Both halves memoized: a hit that answers the real subtree.
    const uint64_t hits = store->partial_index().stats().hits;
    ASSERT_OK_AND_ASSIGN(TokenSequence got, store->Read(2));
    EXPECT_EQ(got, ScanSlice(store.get(), 2));
    EXPECT_EQ(store->partial_index().stats().hits, hits + 1);
    // A real token boundary inside <a> (</b>) and one past it (</r>): a
    // memo-hit read must refuse both rather than return a cut or
    // overlong subtree.
    for (const PartialEntry* wrong : {&b, &r}) {
      memo.Record(2, PartialEntry::kEnd, *wrong->end);
      EXPECT_TRUE(store->Read(2).status().IsCorruption());
    }
  }
}

// Texts and attribute values longer than a single-token read's first
// slice, stored inline and in an overflow record with symbol-coded and
// with inline names (a capped dictionary), read whole by Describe and
// Read(id) both cold and on a memo hit.
TEST(StoreMemoReadTest, LongTokensReadWholeColdAndWarm) {
  for (bool capped : {false, true}) {
    for (size_t len : {size_t{600}, size_t{7000}}) {
      SCOPED_TRACE(std::string(capped ? "capped" : "full") +
                   " dictionary, " + std::to_string(len) + " B values");
      StoreOptions options;
      options.index_mode = IndexMode::kRangeIndex;
      ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
      if (capped) store->name_dictionary()->set_byte_budget(1);
      const std::string value(len, 'v');
      const std::string text(len, 't');
      // r 1, e 2, @k 3, text 4.
      ASSERT_LAXML_OK(
          store->LoadXml("<r><e k=\"" + value + "\">" + text + "</e></r>")
              .status());
      ASSERT_OK_AND_ASSIGN(
          RecordLocation loc,
          store->range_manager().Locate(
              store->range_manager().first_range()));
      EXPECT_EQ(loc.kind, len < 1000 ? RecordLocation::kInline
                                     : RecordLocation::kOverflow);
      const uint64_t hits = store->partial_index().stats().hits;
      for (const char* pass : {"cold", "warm"}) {
        SCOPED_TRACE(pass);
        ASSERT_OK_AND_ASSIGN(Token k, store->Describe(3));
        EXPECT_EQ(k.type, TokenType::kBeginAttribute);
        EXPECT_EQ(k.value, value);
        ASSERT_OK_AND_ASSIGN(Token t, store->Describe(4));
        EXPECT_EQ(t.type, TokenType::kText);
        EXPECT_EQ(t.value, text);
        for (NodeId id : {NodeId{2}, NodeId{3}, NodeId{4}}) {
          ASSERT_OK_AND_ASSIGN(TokenSequence got, store->Read(id));
          EXPECT_EQ(got, ScanSlice(store.get(), id)) << "node " << id;
        }
      }
      EXPECT_GT(store->partial_index().stats().hits, hits);
      EXPECT_LAXML_OK(store->CheckIntegrity());
    }
  }
}

#if !defined(LAXML_TRACING_DISABLED)
// Buffer-pool pins taken by one Read(id).
uint64_t PinsOfRead(Store* store, NodeId id) {
  obs::RequestContext rc;
  obs::ScopedRequestContext scoped(&rc);
  EXPECT_LAXML_OK(store->Read(id).status());
  return rc.counters.pages_pinned;
}

TEST(StoreMemoReadTest, WarmInlineMemoHitPinsOnePage) {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  ASSERT_LAXML_OK(store->LoadXml("<r><a><b>x</b><c/></a><d/></r>").status());
  const RangeManager& ranges = store->range_manager();
  ASSERT_OK_AND_ASSIGN(RecordLocation loc,
                       ranges.Locate(ranges.first_range()));
  ASSERT_EQ(loc.kind, RecordLocation::kInline);
  ASSERT_LAXML_OK(store->Read(2).status());  // memoizes begin and end
  // The record's heap page, and no meta-tree page.
  EXPECT_EQ(PinsOfRead(store.get(), 2), 1u);
}

TEST(StoreMemoReadTest, WarmOverflowMemoHitPinsNoDirectoryPage) {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  // One range far larger than a page: an overflow record. Item i is
  // node 2 + 3i.
  std::string xml = "<r>";
  for (int i = 0; i < 400; ++i) {
    xml += "<item><n>" + std::to_string(i) + "</n></item>";
  }
  ASSERT_LAXML_OK(store->LoadXml(xml + "</r>").status());
  const RangeManager& ranges = store->range_manager();
  ASSERT_OK_AND_ASSIGN(RecordLocation loc,
                       ranges.Locate(ranges.first_range()));
  ASSERT_EQ(loc.kind, RecordLocation::kOverflow);
  const uint32_t piece = options.pager.page_size - kPageHeaderSize - 4;
  for (NodeId id : {NodeId{2}, NodeId{2 + 3 * 399}}) {
    ASSERT_LAXML_OK(store->Read(id).status());
    PartialEntry memo;
    ASSERT_TRUE(store->mutable_partial_index().Lookup(id, &memo));
    ASSERT_TRUE(memo.begin && memo.end &&
                memo.end->range == memo.begin->range);
    const uint32_t first = memo.begin->offset / piece;
    // The slice runs from the begin token to kMaxClosingTokenBytes past
    // the end token's first byte, clamped to the record.
    const uint32_t last =
        std::min<uint32_t>(memo.end->offset + kMaxClosingTokenBytes - 1,
                           loc.len - 1) / piece;
    // The anchor page, then the chain through the slice's last piece.
    EXPECT_EQ(PinsOfRead(store.get(), id), 2u + last) << "node " << id;
    if (id != 2) {
      EXPECT_GT(first, 0u) << "the last item sits in piece 0";
    }
  }
}
#endif  // !defined(LAXML_TRACING_DISABLED)

// One chain holding names in both encodings: a document loaded under a
// capped dictionary (every name inline), reopened uncapped and written
// again, so "o" and "item" are inline in the loaded range and symbols in
// the new one. Reads, memo hits and the audit see one document.
TEST(StoreMemoReadTest, InlineAndSymbolNamesMixInOneChain) {
  testing::TempFile file("mixed_names");
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  std::vector<uint8_t> loaded;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), options));
    store->name_dictionary()->set_byte_budget(1);
    ASSERT_LAXML_OK(
        store->LoadXml("<orders><o id=\"1\"><item>pen</item></o></orders>")
            .status());
    EXPECT_EQ(store->name_dictionary()->size(), 0u)
        << "a capped dictionary interns nothing";
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    loaded = EncodeTokens(all);
    ASSERT_LAXML_OK(store->Sync());
  }
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), options));
  ASSERT_OK_AND_ASSIGN(TokenSequence reopened, store->Read());
  EXPECT_EQ(EncodeTokens(reopened), loaded);
  ASSERT_LAXML_OK(store->InsertIntoLast(
      1, MustFragment("<o id=\"2\"><item>ink</item><item>nib</item></o>")));
  std::set<bool> item_forms;  // symbol-coded?
  auto cursor = store->NewCursor();
  ASSERT_LAXML_OK(cursor->SeekToFirst());
  while (cursor->Valid()) {
    if (cursor->type() == TokenType::kBeginElement &&
        cursor->token().name == "item") {
      item_forms.insert(cursor->name_symbol() != kNoNameSymbol);
    }
    ASSERT_LAXML_OK(cursor->Next());
  }
  cursor.reset();
  ASSERT_EQ(item_forms, (std::set<bool>{false, true}));
  std::vector<NodeId> ids;
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->ReadWithIds(&ids));
  const uint64_t hits = store->partial_index().stats().hits;
  for (NodeId id : ids) {
    if (id == kInvalidNodeId) continue;
    TokenSequence want = ScanSlice(store.get(), id);
    // The first read may locate; the second is a memo hit.
    for (int pass = 0; pass < 2; ++pass) {
      ASSERT_OK_AND_ASSIGN(TokenSequence got, store->Read(id));
      EXPECT_EQ(got, want) << "node " << id << " pass " << pass;
    }
  }
  EXPECT_GT(store->partial_index().stats().hits, hits);
  EXPECT_LAXML_OK(store->CheckIntegrity());
  // Payloads concatenate byte-wise whatever their names' encoding, so
  // the loaded range and the inserted one merge.
  ASSERT_OK_AND_ASSIGN(uint64_t merges, store->CompactRanges(1 << 20));
  EXPECT_GT(merges, 0u);
  ASSERT_OK_AND_ASSIGN(TokenSequence compacted, store->Read());
  EXPECT_EQ(compacted, all);
  EXPECT_LAXML_OK(store->CheckIntegrity());
}

INSTANTIATE_TEST_SUITE_P(AllIndexModes, StoreBasicTest,
                         ::testing::ValuesIn(testing::kIndexConfigs),
                         testing::IndexConfigName);

}  // namespace
}  // namespace laxml
