// Range manager tests: chain maintenance, split semantics (the heart of
// the Range model), deletion, and reopen with index rebuild.

#include "store/range_manager.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "xml/token_codec.h"

namespace laxml {
namespace {

using testing::MustFragment;

class RangeManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PagerOptions options;
    options.page_size = 512;
    options.pool_frames = 32;
    auto pager = Pager::OpenInMemory(options);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
    auto manager = RangeManager::Create(pager_.get());
    ASSERT_TRUE(manager.ok());
    manager_ = std::move(manager).value();
  }

  /// Inserts a range built from an XML fragment; ids start at start_id.
  RangeId AddRange(RangeId after, const std::string& xml, NodeId start_id) {
    TokenSequence tokens = MustFragment(xml);
    std::vector<uint8_t> bytes = EncodeTokens(tokens);
    auto result = manager_->InsertRangeAfter(
        after, Slice(bytes), start_id, CountNodeBegins(tokens),
        static_cast<uint32_t>(tokens.size()));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : kInvalidRangeId;
  }

  std::vector<RangeId> ChainOrder() {
    std::vector<RangeId> order;
    EXPECT_TRUE(manager_
                    ->ForEachRange([&](const RangeMeta& meta) {
                      order.push_back(meta.id);
                      return true;
                    })
                    .ok());
    return order;
  }

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<RangeManager> manager_;
};

TEST_F(RangeManagerTest, InsertBuildsChainInOrder) {
  RangeId a = AddRange(kInvalidRangeId, "<a/>", 1);
  RangeId c = AddRange(a, "<c/>", 10);
  RangeId b = AddRange(a, "<b/>", 20);  // squeezed between a and c
  EXPECT_EQ(ChainOrder(), (std::vector<RangeId>{a, b, c}));
  EXPECT_EQ(manager_->first_range(), a);
  EXPECT_EQ(manager_->last_range(), c);
  EXPECT_EQ(manager_->range_count(), 3u);
}

TEST_F(RangeManagerTest, InsertAtHead) {
  RangeId a = AddRange(kInvalidRangeId, "<a/>", 1);
  RangeId front = AddRange(kInvalidRangeId, "<front/>", 10);
  EXPECT_EQ(ChainOrder(), (std::vector<RangeId>{front, a}));
  EXPECT_EQ(manager_->first_range(), front);
}

TEST_F(RangeManagerTest, MetaMatchesPayload) {
  RangeId a = AddRange(kInvalidRangeId, "<a x=\"1\">t</a>", 5);
  ASSERT_OK_AND_ASSIGN(RangeMeta meta, manager_->GetMeta(a));
  EXPECT_EQ(meta.start_id, 5u);
  EXPECT_EQ(meta.id_count, 3u);  // a, @x, text
  EXPECT_EQ(meta.end_id(), 7u);
  EXPECT_EQ(meta.token_count, 5u);
  ASSERT_OK_AND_ASSIGN(auto payload, manager_->ReadPayload(a));
  EXPECT_EQ(payload.size(), meta.byte_len);
}

TEST_F(RangeManagerTest, SplitDividesTokensAndIds) {
  // One range <a><b/></a>: tokens [<a>, <b>, </b>, </a>], ids 1,2.
  RangeId a = AddRange(kInvalidRangeId, "<a><b/></a>", 1);
  ASSERT_OK_AND_ASSIGN(auto payload, manager_->ReadPayload(a));
  // Split before token index 2 (</b>): head = [<a>, <b>], 2 ids.
  TokenReader reader{Slice(payload)};
  Token t;
  ASSERT_LAXML_OK(reader.Next(&t));
  ASSERT_LAXML_OK(reader.Next(&t));
  uint32_t offset = static_cast<uint32_t>(reader.offset());
  ASSERT_OK_AND_ASSIGN(RangeId tail, manager_->Split({a, offset, 2, 2}));

  ASSERT_OK_AND_ASSIGN(RangeMeta head_meta, manager_->GetMeta(a));
  EXPECT_EQ(head_meta.token_count, 2u);
  EXPECT_EQ(head_meta.id_count, 2u);
  EXPECT_EQ(head_meta.byte_len, offset);
  EXPECT_EQ(head_meta.next, tail);

  ASSERT_OK_AND_ASSIGN(RangeMeta tail_meta, manager_->GetMeta(tail));
  EXPECT_EQ(tail_meta.token_count, 2u);
  EXPECT_EQ(tail_meta.id_count, 0u);  // two end tokens
  EXPECT_FALSE(tail_meta.has_ids());
  EXPECT_EQ(tail_meta.prev, a);

  // Index: [1,2] still maps to the head; the tail has no interval.
  ASSERT_OK_AND_ASSIGN(RangeId looked, manager_->index().Lookup(2));
  EXPECT_EQ(looked, a);
  EXPECT_EQ(manager_->index().size(), 1u);
  EXPECT_EQ(manager_->stats().splits, 1u);
}

TEST_F(RangeManagerTest, SplitWithIdsOnBothSides) {
  // <a/><b/><c/>: 3 ids. Split before <b>.
  RangeId r = AddRange(kInvalidRangeId, "<a/><b/><c/>", 1);
  ASSERT_OK_AND_ASSIGN(auto payload, manager_->ReadPayload(r));
  TokenReader reader{Slice(payload)};
  Token t;
  ASSERT_LAXML_OK(reader.Next(&t));
  ASSERT_LAXML_OK(reader.Next(&t));  // past </a>
  uint32_t offset = static_cast<uint32_t>(reader.offset());
  ASSERT_OK_AND_ASSIGN(RangeId tail,
                       manager_->Split({r, offset, 2, 1}));
  ASSERT_OK_AND_ASSIGN(RangeMeta tail_meta, manager_->GetMeta(tail));
  EXPECT_EQ(tail_meta.start_id, 2u);
  EXPECT_EQ(tail_meta.id_count, 2u);
  ASSERT_OK_AND_ASSIGN(RangeId r1, manager_->index().Lookup(1));
  ASSERT_OK_AND_ASSIGN(RangeId r2, manager_->index().Lookup(2));
  ASSERT_OK_AND_ASSIGN(RangeId r3, manager_->index().Lookup(3));
  EXPECT_EQ(r1, r);
  EXPECT_EQ(r2, tail);
  EXPECT_EQ(r3, tail);
}

TEST_F(RangeManagerTest, SplitAtEdgesRejected) {
  RangeId a = AddRange(kInvalidRangeId, "<a/>", 1);
  ASSERT_OK_AND_ASSIGN(RangeMeta meta, manager_->GetMeta(a));
  EXPECT_TRUE(manager_->Split({a, 0, 0, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(manager_->Split({a, meta.byte_len, meta.token_count,
                               static_cast<uint32_t>(meta.id_count)})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RangeManagerTest, DeleteUnlinksAndReindexes) {
  RangeId a = AddRange(kInvalidRangeId, "<a/>", 1);
  RangeId b = AddRange(a, "<b/>", 2);
  RangeId c = AddRange(b, "<c/>", 3);
  ASSERT_LAXML_OK(manager_->DeleteRange(b));
  EXPECT_EQ(ChainOrder(), (std::vector<RangeId>{a, c}));
  EXPECT_TRUE(manager_->index().Lookup(2).status().IsNotFound());
  EXPECT_TRUE(manager_->GetMeta(b).status().IsNotFound());
  EXPECT_EQ(manager_->range_count(), 2u);
  // Delete the ends too.
  ASSERT_LAXML_OK(manager_->DeleteRange(a));
  ASSERT_LAXML_OK(manager_->DeleteRange(c));
  EXPECT_EQ(manager_->first_range(), kInvalidRangeId);
  EXPECT_EQ(manager_->last_range(), kInvalidRangeId);
  EXPECT_EQ(manager_->range_count(), 0u);
}

// Reopen refills the Range Index and the resident payload locations
// from the meta tree, and range ids keep counting past every id used
// before, deleted ones included.
TEST_F(RangeManagerTest, ReopenRebuildsIndexFromMeta) {
  RangeId a = AddRange(kInvalidRangeId, "<a/><a2/>", 1);
  RangeId b = AddRange(a, "<b/>", 50);
  RangeId c = AddRange(b, "<c/>", 60);
  ASSERT_LAXML_OK(manager_->DeleteRange(c));
  RangeManagerState state = manager_->state();
  manager_.reset();
  ASSERT_OK_AND_ASSIGN(manager_, RangeManager::Open(pager_.get(), state));
  EXPECT_EQ(manager_->index().size(), 2u);
  ASSERT_OK_AND_ASSIGN(RangeId r, manager_->index().Lookup(2));
  EXPECT_EQ(r, a);
  ASSERT_OK_AND_ASSIGN(r, manager_->index().Lookup(50));
  EXPECT_EQ(r, b);
  EXPECT_EQ(ChainOrder().size(), 2u);
  EXPECT_EQ(manager_->location_count(), 2u);
  for (RangeId id : {a, b}) {
    ASSERT_OK_AND_ASSIGN(RangeMeta meta, manager_->GetMeta(id));
    ASSERT_OK_AND_ASSIGN(RecordLocation loc, manager_->Locate(id));
    EXPECT_EQ(loc, meta.location()) << "range " << id;
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> payload,
                         manager_->ReadPayload(id));
    EXPECT_EQ(payload.size(), meta.byte_len) << "range " << id;
  }
  EXPECT_TRUE(manager_->Locate(c).status().IsNotFound());
  EXPECT_GT(AddRange(b, "<d/>", 70), c);
}

TEST_F(RangeManagerTest, BlockOfReportsHeapPage) {
  RangeId a = AddRange(kInvalidRangeId, "<a/>", 1);
  ASSERT_OK_AND_ASSIGN(PageId block, manager_->BlockOf(a));
  EXPECT_NE(block, kInvalidPageId);
}

}  // namespace
}  // namespace laxml
