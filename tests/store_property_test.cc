// Model-based property tests: random operation streams applied to the
// real Store (every index mode, several range granularities) and to the
// naive ReferenceModel, requiring identical observable behaviour after
// every step and intact store invariants at checkpoints.

#include <gtest/gtest.h>

#include "reference_model.h"
#include "store/store.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "workload/op_stream.h"

namespace laxml {
namespace {

using testing::ReferenceModel;

struct PropertyParam {
  testing::IndexConfig config;
  uint32_t max_range_bytes;
  uint64_t seed;
};

class StorePropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(StorePropertyTest, StoreAgreesWithReferenceModel) {
  const PropertyParam& param = GetParam();
  StoreOptions options;
  param.config.ApplyTo(&options);
  if (param.config.memoizes()) {
    options.partial_index_capacity = 64;  // small: exercise eviction
  }
  options.max_range_bytes = param.max_range_bytes;
  options.pager.page_size = 512;   // small: exercise overflow
  options.pager.pool_frames = 32;  // small: exercise eviction
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  ReferenceModel model;

  // Seed both with the same random tree.
  Random seed_rng(param.seed);
  TokenSequence initial = GenerateRandomTree(&seed_rng, 60, 5);
  ASSERT_OK_AND_ASSIGN(NodeId store_first, store->InsertTopLevel(initial));
  ASSERT_OK_AND_ASSIGN(NodeId model_first, model.InsertTopLevel(initial));
  ASSERT_EQ(store_first, model_first);

  OpMix mix;
  OpStreamGenerator ops(mix, param.seed * 7 + 1);
  for (int round = 0; round < 400; ++round) {
    std::vector<NodeId> elements = model.LiveElementIds();
    std::vector<NodeId> any = model.LiveIds();
    Operation op = ops.Next(elements, any);
    SCOPED_TRACE("round " + std::to_string(round) + " op " +
                 OperationKindName(op.kind) + " target " +
                 std::to_string(op.target));

    switch (op.kind) {
      case Operation::Kind::kInsertBefore: {
        auto s = store->InsertBefore(op.target, op.fragment);
        auto m = model.InsertBefore(op.target, op.fragment);
        ASSERT_EQ(s.ok(), m.ok()) << s.status().ToString();
        if (s.ok()) {
          ASSERT_EQ(*s, *m);
        }
        break;
      }
      case Operation::Kind::kInsertAfter: {
        auto s = store->InsertAfter(op.target, op.fragment);
        auto m = model.InsertAfter(op.target, op.fragment);
        ASSERT_EQ(s.ok(), m.ok()) << s.status().ToString();
        if (s.ok()) {
          ASSERT_EQ(*s, *m);
        }
        break;
      }
      case Operation::Kind::kInsertIntoFirst: {
        auto s = store->InsertIntoFirst(op.target, op.fragment);
        auto m = model.InsertIntoFirst(op.target, op.fragment);
        ASSERT_EQ(s.ok(), m.ok()) << s.status().ToString();
        if (s.ok()) {
          ASSERT_EQ(*s, *m);
        }
        break;
      }
      case Operation::Kind::kInsertIntoLast: {
        auto s = store->InsertIntoLast(op.target, op.fragment);
        auto m = model.InsertIntoLast(op.target, op.fragment);
        ASSERT_EQ(s.ok(), m.ok()) << s.status().ToString();
        if (s.ok()) {
          ASSERT_EQ(*s, *m);
        }
        break;
      }
      case Operation::Kind::kDelete: {
        // Never delete the last node: an empty store is legal but makes
        // the rest of the stream trivial.
        if (any.size() <= 1) break;
        Status s = store->DeleteNode(op.target);
        Status m = model.DeleteNode(op.target);
        ASSERT_EQ(s.ok(), m.ok()) << s.ToString();
        break;
      }
      case Operation::Kind::kReplaceNode: {
        auto s = store->ReplaceNode(op.target, op.fragment);
        auto m = model.ReplaceNode(op.target, op.fragment);
        ASSERT_EQ(s.ok(), m.ok()) << s.status().ToString();
        if (s.ok()) {
          ASSERT_EQ(*s, *m);
        }
        break;
      }
      case Operation::Kind::kReplaceContent: {
        auto s = store->ReplaceContent(op.target, op.fragment);
        auto m = model.ReplaceContent(op.target, op.fragment);
        ASSERT_EQ(s.ok(), m.ok()) << s.status().ToString();
        if (s.ok()) {
          ASSERT_EQ(*s, *m);
        }
        break;
      }
      case Operation::Kind::kRead: {
        auto s = store->Read(op.target);
        auto m = model.Read(op.target);
        ASSERT_EQ(s.ok(), m.ok()) << s.status().ToString();
        if (s.ok()) {
          ASSERT_EQ(*s, *m);
        }
        break;
      }
    }

    // Periodic deep agreement + invariants (every step would be O(n^2)).
    if (round % 25 == 24) {
      std::vector<NodeId> store_ids;
      ASSERT_OK_AND_ASSIGN(TokenSequence store_all,
                           store->ReadWithIds(&store_ids));
      ASSERT_EQ(store_all, model.tokens());
      ASSERT_EQ(store_ids, model.ids());
      ASSERT_LAXML_OK(store->CheckIntegrity());
    }
  }

  // Final: every live id readable and equal; every dead id NotFound.
  for (NodeId id : model.LiveIds()) {
    auto s = store->Read(id);
    auto m = model.Read(id);
    ASSERT_TRUE(s.ok()) << "id " << id << ": " << s.status().ToString();
    ASSERT_EQ(*s, *m) << "id " << id;
    ASSERT_TRUE(store->Exists(id));
  }
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

std::vector<PropertyParam> PropertyMatrix() {
  std::vector<PropertyParam> params;
  for (const testing::IndexConfig& config : testing::kIndexConfigs) {
    for (uint32_t granularity : {0u, 64u, 512u}) {
      for (uint64_t seed : {1ull, 42ull}) {
        params.push_back({config, granularity, seed});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StorePropertyTest, ::testing::ValuesIn(PropertyMatrix()),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      std::string name = info.param.config.short_name;
      name += "G" + std::to_string(info.param.max_range_bytes);
      name += "S" + std::to_string(info.param.seed);
      return name;
    });

}  // namespace
}  // namespace laxml
