// B+-tree tests: basic ops, splits across multiple levels, deletion with
// node collapse, ordered iteration, reopen from root, drop, and a
// randomized differential test against std::map.

#include "btree/btree.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "test_util.h"

namespace laxml {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PagerOptions options;
    options.page_size = 512;  // small pages force deep trees quickly
    options.pool_frames = 32;
    auto pager = Pager::OpenInMemory(options);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
    auto tree = BTree::Create(pager_.get(), 8);
    ASSERT_TRUE(tree.ok());
    tree_ = std::make_unique<BTree>(std::move(tree).value());
  }

  void Put(uint64_t key, uint64_t value) {
    uint8_t buf[8];
    EncodeFixed64(buf, value);
    ASSERT_LAXML_OK(tree_->Insert(key, Slice(buf, 8)));
  }

  // Returns value or UINT64_MAX when missing.
  uint64_t Get(uint64_t key) {
    uint8_t buf[8];
    auto found = tree_->Get(key, buf);
    EXPECT_TRUE(found.ok()) << found.status().ToString();
    if (!found.ok() || !*found) return UINT64_MAX;
    return DecodeFixed64(buf);
  }

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTreeBehaves) {
  EXPECT_EQ(Get(42), UINT64_MAX);
  EXPECT_EQ(tree_->size(), 0u);
  EXPECT_TRUE(tree_->Delete(42).IsNotFound());
  BTree::Iterator it = tree_->NewIterator();
  ASSERT_LAXML_OK(it.SeekToFirst());
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, InsertGetOverwrite) {
  Put(10, 100);
  Put(20, 200);
  EXPECT_EQ(Get(10), 100u);
  EXPECT_EQ(Get(20), 200u);
  EXPECT_EQ(Get(15), UINT64_MAX);
  Put(10, 111);
  EXPECT_EQ(Get(10), 111u);
  EXPECT_EQ(tree_->size(), 2u);
}

TEST_F(BTreeTest, ValueSizeEnforced) {
  uint8_t small[4] = {0};
  EXPECT_TRUE(tree_->Insert(1, Slice(small, 4)).IsInvalidArgument());
}

TEST_F(BTreeTest, ThousandsOfKeysSplitLevels) {
  const uint64_t kN = 5000;
  PageId initial_root = tree_->root();
  for (uint64_t i = 0; i < kN; ++i) {
    Put(i * 7 % kN, i);  // scrambled order
  }
  EXPECT_NE(tree_->root(), initial_root);  // root split happened
  EXPECT_EQ(tree_->size(), kN);
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_NE(Get(k), UINT64_MAX) << "key " << k;
  }
}

TEST_F(BTreeTest, GetPinsEachLevelOnce) {
  for (uint64_t k = 0; k < 100; ++k) Put(k, k);
  // Depth 2: an internal root over leaves only.
  std::vector<BTreeCheckIssue> issues;
  std::vector<PageId> nodes;
  ASSERT_LAXML_OK(tree_->CheckStructure(&issues, &nodes));
  ASSERT_TRUE(issues.empty());
  ASSERT_GT(nodes.size(), 1u);
  for (PageId id : nodes) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pager_->Fetch(id));
    EXPECT_EQ(h.view().type(), id == tree_->root() ? PageType::kBTreeInternal
                                                   : PageType::kBTreeLeaf);
  }
  const BufferPoolStats& stats = pager_->pool_stats();
  for (uint64_t key : {0ull, 57ull, 99ull, 1000ull}) {
    const uint64_t before = stats.hits + stats.misses;
    uint8_t value[8];
    ASSERT_OK_AND_ASSIGN(bool found, tree_->Get(key, value));
    EXPECT_EQ(found, key < 100);
    EXPECT_EQ(stats.hits + stats.misses - before, 2u) << "key " << key;
  }
}

TEST_F(BTreeTest, OrderedIteration) {
  for (uint64_t k : {50u, 10u, 40u, 20u, 30u}) Put(k, k * 2);
  BTree::Iterator it = tree_->NewIterator();
  ASSERT_LAXML_OK(it.SeekToFirst());
  std::vector<uint64_t> keys;
  while (it.Valid()) {
    keys.push_back(it.key());
    EXPECT_EQ(DecodeFixed64(it.value()), it.key() * 2);
    ASSERT_LAXML_OK(it.Next());
  }
  EXPECT_EQ(keys, (std::vector<uint64_t>{10, 20, 30, 40, 50}));
}

TEST_F(BTreeTest, SeekFindsLowerBound) {
  for (uint64_t k = 0; k < 100; k += 10) Put(k, k);
  BTree::Iterator it = tree_->NewIterator();
  ASSERT_LAXML_OK(it.Seek(35));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 40u);
  ASSERT_LAXML_OK(it.Seek(40));
  EXPECT_EQ(it.key(), 40u);
  ASSERT_LAXML_OK(it.Seek(91));
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, DeleteShrinksAndCollapses) {
  const uint64_t kN = 2000;
  for (uint64_t k = 0; k < kN; ++k) Put(k, k);
  for (uint64_t k = 0; k < kN; k += 2) {
    ASSERT_LAXML_OK(tree_->Delete(k));
  }
  EXPECT_EQ(tree_->size(), kN / 2);
  for (uint64_t k = 0; k < kN; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(Get(k), UINT64_MAX);
    } else {
      EXPECT_EQ(Get(k), k);
    }
  }
  // Delete the rest; empty leaves and internals must collapse cleanly.
  for (uint64_t k = 1; k < kN; k += 2) {
    ASSERT_LAXML_OK(tree_->Delete(k));
  }
  EXPECT_EQ(tree_->size(), 0u);
  BTree::Iterator it = tree_->NewIterator();
  ASSERT_LAXML_OK(it.SeekToFirst());
  EXPECT_FALSE(it.Valid());
  // The tree is still usable.
  Put(5, 55);
  EXPECT_EQ(Get(5), 55u);
}

TEST_F(BTreeTest, ReopenFromRoot) {
  for (uint64_t k = 0; k < 500; ++k) Put(k, k + 1);
  PageId root = tree_->root();
  tree_.reset();
  ASSERT_OK_AND_ASSIGN(BTree reopened, BTree::Open(pager_.get(), root, 8));
  EXPECT_EQ(reopened.size(), 500u);
  uint8_t buf[8];
  ASSERT_OK_AND_ASSIGN(bool found, reopened.Get(250, buf));
  ASSERT_TRUE(found);
  EXPECT_EQ(DecodeFixed64(buf), 251u);
}

TEST_F(BTreeTest, DropFreesAllPages) {
  for (uint64_t k = 0; k < 3000; ++k) Put(k, k);
  uint32_t used_before = pager_->page_count() - pager_->free_page_count();
  ASSERT_LAXML_OK(tree_->Drop());
  uint32_t used_after = pager_->page_count() - pager_->free_page_count();
  EXPECT_LT(used_after, used_before);
  EXPECT_LE(used_after, 2u);  // only pager bookkeeping remains
}

TEST_F(BTreeTest, DifferentialAgainstStdMap) {
  Random rng(2025);
  std::map<uint64_t, uint64_t> model;
  for (int round = 0; round < 8000; ++round) {
    uint64_t key = rng.Uniform(1200);
    int action = static_cast<int>(rng.Uniform(3));
    if (action == 0 || model.empty()) {
      uint64_t value = rng.Next64();
      Put(key, value);
      model[key] = value;
    } else if (action == 1) {
      auto it = model.find(key);
      Status st = tree_->Delete(key);
      if (it == model.end()) {
        EXPECT_TRUE(st.IsNotFound());
      } else {
        EXPECT_TRUE(st.ok()) << st.ToString();
        model.erase(it);
      }
    } else {
      auto it = model.find(key);
      uint64_t got = Get(key);
      if (it == model.end()) {
        EXPECT_EQ(got, UINT64_MAX);
      } else {
        EXPECT_EQ(got, it->second);
      }
    }
  }
  EXPECT_EQ(tree_->size(), model.size());
  // Full ordered sweep agrees.
  BTree::Iterator it = tree_->NewIterator();
  ASSERT_LAXML_OK(it.SeekToFirst());
  auto mit = model.begin();
  while (it.Valid() && mit != model.end()) {
    EXPECT_EQ(it.key(), mit->first);
    EXPECT_EQ(DecodeFixed64(it.value()), mit->second);
    ASSERT_LAXML_OK(it.Next());
    ++mit;
  }
  EXPECT_FALSE(it.Valid());
  EXPECT_EQ(mit, model.end());
}

TEST_F(BTreeTest, LargeValueSize) {
  auto tree = BTree::Create(pager_.get(), 48);
  ASSERT_TRUE(tree.ok());
  std::string value(48, 'v');
  for (uint64_t k = 0; k < 200; ++k) {
    value[0] = static_cast<char>('a' + k % 26);
    ASSERT_LAXML_OK(tree->Insert(k, Slice(value)));
  }
  uint8_t buf[48];
  ASSERT_OK_AND_ASSIGN(bool found, tree->Get(25, buf));
  ASSERT_TRUE(found);
  EXPECT_EQ(buf[0], 'z');
}

TEST_F(BTreeTest, RejectsSillyValueSizes) {
  EXPECT_TRUE(BTree::Create(pager_.get(), 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      BTree::Create(pager_.get(), 1000).status().IsInvalidArgument());
}

}  // namespace
}  // namespace laxml
