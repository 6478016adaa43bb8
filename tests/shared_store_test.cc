// SharedStore tests: concurrent mixed workloads stay serializable and
// invariant-clean.

#include "concurrency/shared_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "test_util.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;

std::unique_ptr<SharedStore> MakeShared() {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeWithPartial;
  auto store = Store::OpenInMemory(options);
  EXPECT_TRUE(store.ok());
  return std::make_unique<SharedStore>(std::move(store).value());
}

TEST(SharedStoreTest, SingleThreadedPassThrough) {
  auto shared = MakeShared();
  ASSERT_OK_AND_ASSIGN(NodeId root,
                       shared->InsertTopLevel(MustFragment("<r/>")));
  ASSERT_LAXML_OK(shared->InsertIntoLast(root, MustFragment("<c/>")).status());
  ASSERT_OK_AND_ASSIGN(TokenSequence all, shared->Read());
  EXPECT_EQ(CountNodeBegins(all), 2u);
}

TEST(SharedStoreTest, ConcurrentAppendersLoseNothing) {
  auto shared = MakeShared();
  ASSERT_OK_AND_ASSIGN(NodeId root,
                       shared->InsertTopLevel(MustFragment("<log/>")));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto r = shared->InsertIntoLast(
            root, MustFragment("<e t=\"" + std::to_string(t) + "\"/>"));
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_OK_AND_ASSIGN(TokenSequence all, shared->Read());
  EXPECT_EQ(CountNodeBegins(all), 1u + kThreads * kPerThread * 2u);
  ASSERT_LAXML_OK(shared->UnsafeStore()->CheckIntegrity());
}

TEST(SharedStoreTest, ReadersAndWritersInterleave) {
  auto shared = MakeShared();
  ASSERT_OK_AND_ASSIGN(NodeId root,
                       shared->InsertTopLevel(MustFragment("<hub/>")));
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto all = shared->Read();
      if (!all.ok()) {
        read_errors.fetch_add(1);
        continue;
      }
      // Every observed state is well formed.
      if (!CheckWellFormedFragment(*all).ok()) read_errors.fetch_add(1);
      auto sub = shared->Read(root);
      if (!sub.ok()) read_errors.fetch_add(1);
    }
  });
  for (int i = 0; i < 150; ++i) {
    ASSERT_LAXML_OK(
        shared->InsertIntoLast(root, MustFragment("<x/>")).status());
    if (i % 10 == 9) {
      // Delete the most recent child: id is deterministic (root=1).
      auto all = shared->Read();
      ASSERT_TRUE(all.ok());
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0);
  ASSERT_LAXML_OK(shared->UnsafeStore()->CheckIntegrity());
}

TEST(SharedStoreTest, WithExclusiveComposesAtomically) {
  auto shared = MakeShared();
  ASSERT_OK_AND_ASSIGN(NodeId root,
                       shared->InsertTopLevel(MustFragment("<acct/>")));
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        // Read-modify-write of the child count, atomically.
        Status st = shared->WithExclusive([&](Store& store) -> Status {
          auto all = store.Read();
          if (!all.ok()) return all.status();
          uint64_t count = CountNodeBegins(*all);
          return store
              .InsertIntoLast(root, {Token::Comment(std::to_string(count))})
              .status();
        });
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_OK_AND_ASSIGN(TokenSequence all, shared->Read());
  EXPECT_EQ(CountNodeBegins(all), 1u + kThreads * 50u);
}

}  // namespace
}  // namespace laxml
