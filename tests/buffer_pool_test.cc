// Buffer pool tests: pin semantics, LRU eviction and write-back, hit
// accounting, checksum verification on fetch, the no-steal mode, and
// crash-simulating DiscardAll.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include "common/slice.h"
#include "test_util.h"

namespace laxml {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest()
      : file_(std::move(PageFile::Open(std::make_unique<MemFile>(), 512))
                  .value()),
        pool_(file_.get(), 4) {}

  PageId NewPageWithByte(uint8_t b) {
    auto handle = pool_.New(PageType::kSlotted);
    EXPECT_TRUE(handle.ok());
    handle->view().payload()[0] = b;
    handle->MarkDirty();
    return handle->id();
  }

  std::unique_ptr<PageFile> file_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, NewPagesAreZeroedAndTyped) {
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool_.New(PageType::kBTreeLeaf));
  EXPECT_EQ(h.view().type(), PageType::kBTreeLeaf);
  EXPECT_EQ(h.view().payload()[10], 0);
}

TEST_F(BufferPoolTest, FetchHitsCachedPage) {
  PageId id = NewPageWithByte(0x42);
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool_.Fetch(id));
  EXPECT_EQ(h.view().payload()[0], 0x42);
  EXPECT_GE(pool_.stats().hits, 1u);
  EXPECT_EQ(pool_.stats().page_reads, 0u);  // never touched the file
}

TEST_F(BufferPoolTest, EvictionWritesBackAndRereadVerifies) {
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(NewPageWithByte(static_cast<uint8_t>(i)));
  }
  // Pool of 4: the first pages were evicted (written back).
  EXPECT_GE(pool_.stats().evictions, 4u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool_.Fetch(ids[i]));
    EXPECT_EQ(h.view().payload()[0], static_cast<uint8_t>(i)) << i;
  }
}

TEST_F(BufferPoolTest, PinnedPagesCannotBeEvicted) {
  std::vector<PageHandle> pinned;
  for (int i = 0; i < 4; ++i) {
    auto h = pool_.New(PageType::kSlotted);
    ASSERT_TRUE(h.ok());
    pinned.push_back(std::move(h).value());
  }
  // Every frame pinned: the next allocation cannot find a victim.
  auto overflow = pool_.New(PageType::kSlotted);
  EXPECT_TRUE(overflow.status().IsResourceExhausted());
  pinned.clear();
  EXPECT_TRUE(pool_.New(PageType::kSlotted).ok());
}

TEST_F(BufferPoolTest, ExplicitEvictRefusesPinned) {
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool_.New(PageType::kSlotted));
  PageId id = h.id();
  EXPECT_TRUE(pool_.Evict(id).IsAborted());
  h.Release();
  EXPECT_LAXML_OK(pool_.Evict(id));
}

TEST_F(BufferPoolTest, CorruptedPageFailsFetch) {
  PageId id = NewPageWithByte(1);
  ASSERT_LAXML_OK(pool_.FlushPage(id));
  ASSERT_LAXML_OK(pool_.Evict(id));
  // Corrupt it behind the pool's back.
  std::vector<uint8_t> raw(512);
  ASSERT_LAXML_OK(file_->ReadPage(id, raw.data()));
  raw[300] ^= 0xFF;
  ASSERT_LAXML_OK(file_->WritePage(id, raw.data()));
  auto fetched = pool_.Fetch(id);
  EXPECT_TRUE(fetched.status().IsCorruption());
  EXPECT_EQ(pool_.stats().checksum_failures, 1u);
}

TEST_F(BufferPoolTest, NoStealRefusesDirtyVictims) {
  pool_.set_no_steal(true);
  for (int i = 0; i < 4; ++i) {
    NewPageWithByte(static_cast<uint8_t>(i));  // all dirty, unpinned
  }
  auto blocked = pool_.New(PageType::kSlotted);
  EXPECT_TRUE(blocked.status().IsResourceExhausted());
  EXPECT_EQ(pool_.dirty_count(), 4u);
  ASSERT_LAXML_OK(pool_.FlushAll());
  EXPECT_EQ(pool_.dirty_count(), 0u);
  EXPECT_TRUE(pool_.New(PageType::kSlotted).ok());
}

TEST_F(BufferPoolTest, DiscardAllDropsDirtyData) {
  PageId id = NewPageWithByte(0x99);
  pool_.DiscardAll();
  // The dirty byte never reached the file: reading the raw page finds
  // zeroes (never written).
  std::vector<uint8_t> raw(512);
  ASSERT_LAXML_OK(file_->ReadPage(id, raw.data()));
  PageView view(raw.data(), 512);
  EXPECT_EQ(view.payload()[0], 0);
}

TEST_F(BufferPoolTest, FlushAllClearsDirtyBits) {
  NewPageWithByte(1);
  NewPageWithByte(2);
  EXPECT_EQ(pool_.dirty_count(), 2u);
  ASSERT_LAXML_OK(pool_.FlushAll());
  EXPECT_EQ(pool_.dirty_count(), 0u);
  EXPECT_EQ(pool_.stats().page_writes, 2u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfHandles) {
  ASSERT_OK_AND_ASSIGN(PageHandle a, pool_.New(PageType::kSlotted));
  PageId id = a.id();
  PageHandle b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.id(), id);
  b.Release();
  EXPECT_FALSE(b.valid());
}

TEST_F(BufferPoolTest, InvalidFetchRejected) {
  EXPECT_TRUE(pool_.Fetch(0).status().IsInvalidArgument());
  EXPECT_TRUE(pool_.Fetch(kInvalidPageId).status().IsInvalidArgument());
}

}  // namespace
}  // namespace laxml
