// Crash-point property test: run a random operation stream against a
// WAL-enabled store, crash after a random prefix, recover, and require
// the recovered state to equal the reference model driven with the same
// prefix. Repeats across seeds and crash points.

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

struct CrashParam {
  uint64_t seed;
  int crash_after;  // ops applied before the crash
};

class RecoveryPropertyTest : public ::testing::TestWithParam<CrashParam> {};

TEST_P(RecoveryPropertyTest, RecoveredStateMatchesModelPrefix) {
  const CrashParam& param = GetParam();
  TempFile tmp("recprop" + std::to_string(param.seed) +
               std::to_string(param.crash_after));
  StoreOptions options;
  options.enable_wal = true;
  options.pager.page_size = 512;
  options.pager.pool_frames = 256;

  ReferenceModel model;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    Random seed_rng(param.seed);
    TokenSequence initial = GenerateRandomTree(&seed_rng, 40, 4);
    ASSERT_LAXML_OK(store->InsertTopLevel(initial).status());
    ASSERT_LAXML_OK(model.InsertTopLevel(initial).status());

    OpStreamGenerator ops(OpMix{}, param.seed * 3 + 5);
    for (int i = 0; i < param.crash_after; ++i) {
      std::vector<NodeId> elements = model.LiveElementIds();
      std::vector<NodeId> any = model.LiveIds();
      Operation op = ops.Next(elements, any);
      switch (op.kind) {
        case Operation::Kind::kInsertBefore:
          (void)store->InsertBefore(op.target, op.fragment);
          (void)model.InsertBefore(op.target, op.fragment);
          break;
        case Operation::Kind::kInsertAfter:
          (void)store->InsertAfter(op.target, op.fragment);
          (void)model.InsertAfter(op.target, op.fragment);
          break;
        case Operation::Kind::kInsertIntoFirst:
          (void)store->InsertIntoFirst(op.target, op.fragment);
          (void)model.InsertIntoFirst(op.target, op.fragment);
          break;
        case Operation::Kind::kInsertIntoLast:
          (void)store->InsertIntoLast(op.target, op.fragment);
          (void)model.InsertIntoLast(op.target, op.fragment);
          break;
        case Operation::Kind::kDelete:
          if (any.size() > 1) {
            (void)store->DeleteNode(op.target);
            (void)model.DeleteNode(op.target);
          }
          break;
        case Operation::Kind::kReplaceNode:
          (void)store->ReplaceNode(op.target, op.fragment);
          (void)model.ReplaceNode(op.target, op.fragment);
          break;
        case Operation::Kind::kReplaceContent:
          (void)store->ReplaceContent(op.target, op.fragment);
          (void)model.ReplaceContent(op.target, op.fragment);
          break;
        case Operation::Kind::kRead:
          (void)store->Read(op.target);
          break;
      }
    }
    store->TestOnlyCrash();
  }
  // Recover and compare against the model's prefix state.
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    std::vector<NodeId> ids;
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->ReadWithIds(&ids));
    EXPECT_EQ(all, model.tokens());
    EXPECT_EQ(ids, model.ids());
    ASSERT_LAXML_OK(store->CheckIntegrity());
    // And the recovered store keeps working.
    ASSERT_LAXML_OK(store->LoadXml("<after-recovery/>").status());
  }
}

std::vector<CrashParam> CrashMatrix() {
  std::vector<CrashParam> params;
  for (uint64_t seed : {3ull, 14ull, 159ull}) {
    for (int crash_after : {0, 1, 7, 40, 120}) {
      params.push_back({seed, crash_after});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    CrashPoints, RecoveryPropertyTest, ::testing::ValuesIn(CrashMatrix()),
    [](const ::testing::TestParamInfo<CrashParam>& info) {
      return "S" + std::to_string(info.param.seed) + "C" +
             std::to_string(info.param.crash_after);
    });

}  // namespace
}  // namespace laxml
