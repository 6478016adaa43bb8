// Longer-horizon stress: thousands of mixed operations with periodic
// compaction, reopen cycles, and invariant checks — the closest thing
// to a soak test that still fits in a unit-test budget.

#include <gtest/gtest.h>

#include "reference_model.h"
#include "store/store.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "workload/op_stream.h"

namespace laxml {
namespace {

using testing::ReferenceModel;
using testing::TempFile;

void ApplyBoth(Store* store, ReferenceModel* model, const Operation& op,
               size_t live_count) {
  switch (op.kind) {
    case Operation::Kind::kInsertBefore:
      (void)store->InsertBefore(op.target, op.fragment);
      (void)model->InsertBefore(op.target, op.fragment);
      break;
    case Operation::Kind::kInsertAfter:
      (void)store->InsertAfter(op.target, op.fragment);
      (void)model->InsertAfter(op.target, op.fragment);
      break;
    case Operation::Kind::kInsertIntoFirst:
      (void)store->InsertIntoFirst(op.target, op.fragment);
      (void)model->InsertIntoFirst(op.target, op.fragment);
      break;
    case Operation::Kind::kInsertIntoLast:
      (void)store->InsertIntoLast(op.target, op.fragment);
      (void)model->InsertIntoLast(op.target, op.fragment);
      break;
    case Operation::Kind::kDelete:
      if (live_count > 1) {
        (void)store->DeleteNode(op.target);
        (void)model->DeleteNode(op.target);
      }
      break;
    case Operation::Kind::kReplaceNode:
      (void)store->ReplaceNode(op.target, op.fragment);
      (void)model->ReplaceNode(op.target, op.fragment);
      break;
    case Operation::Kind::kReplaceContent:
      (void)store->ReplaceContent(op.target, op.fragment);
      (void)model->ReplaceContent(op.target, op.fragment);
      break;
    case Operation::Kind::kRead:
      (void)store->Read(op.target);
      break;
  }
}

TEST(StoreStressTest, ThousandsOfOpsWithCompactionAndReopen) {
  TempFile tmp("stress");
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  options.partial_index_capacity = 128;
  options.max_range_bytes = 128;
  options.pager.page_size = 512;
  options.pager.pool_frames = 128;

  ReferenceModel model;
  OpStreamGenerator ops(OpMix{}, 9001);
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    Random rng(9001);
    TokenSequence initial = GenerateRandomTree(&rng, 80, 5);
    ASSERT_LAXML_OK(store->InsertTopLevel(initial).status());
    ASSERT_LAXML_OK(model.InsertTopLevel(initial).status());

    for (int i = 0; i < 1500; ++i) {
      std::vector<NodeId> any = model.LiveIds();
      Operation op = ops.Next(model.LiveElementIds(), any);
      ApplyBoth(store.get(), &model, op, any.size());
      if (i % 250 == 249) {
        ASSERT_LAXML_OK(store->CompactRanges(512).status());
        ASSERT_LAXML_OK(store->CheckIntegrity());
        std::vector<NodeId> ids;
        ASSERT_OK_AND_ASSIGN(TokenSequence all, store->ReadWithIds(&ids));
        ASSERT_EQ(all, model.tokens()) << "after op " << i;
        ASSERT_EQ(ids, model.ids());
      }
    }
  }  // destructor checkpoints
  // Second life: reopen, verify, and keep mutating.
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    std::vector<NodeId> ids;
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->ReadWithIds(&ids));
    ASSERT_EQ(all, model.tokens());
    ASSERT_EQ(ids, model.ids());
    for (int i = 0; i < 300; ++i) {
      std::vector<NodeId> any = model.LiveIds();
      Operation op = ops.Next(model.LiveElementIds(), any);
      ApplyBoth(store.get(), &model, op, any.size());
    }
    ASSERT_LAXML_OK(store->CheckIntegrity());
    ASSERT_OK_AND_ASSIGN(all, store->ReadWithIds(&ids));
    ASSERT_EQ(all, model.tokens());
    ASSERT_EQ(ids, model.ids());
  }
}

TEST(StoreStressTest, FullIndexModeLongHaul) {
  StoreOptions options;
  options.index_mode = IndexMode::kFullIndex;
  options.pager.page_size = 512;
  options.pager.pool_frames = 256;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  ReferenceModel model;
  Random rng(11);
  TokenSequence initial = GenerateRandomTree(&rng, 50, 4);
  ASSERT_LAXML_OK(store->InsertTopLevel(initial).status());
  ASSERT_LAXML_OK(model.InsertTopLevel(initial).status());
  OpStreamGenerator ops(OpMix{}, 77);
  for (int i = 0; i < 1000; ++i) {
    std::vector<NodeId> any = model.LiveIds();
    Operation op = ops.Next(model.LiveElementIds(), any);
    ApplyBoth(store.get(), &model, op, any.size());
  }
  ASSERT_LAXML_OK(store->CheckIntegrity());
  // The eager index tracks live nodes exactly.
  EXPECT_EQ(store->full_index_size(), model.LiveIds().size());
  std::vector<NodeId> ids;
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->ReadWithIds(&ids));
  ASSERT_EQ(all, model.tokens());
}

}  // namespace
}  // namespace laxml
