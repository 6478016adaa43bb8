// Page-size sweep: the storage substrate must behave identically from
// the smallest supported page to the largest, across inline records,
// overflow chains, and split-heavy workloads.

#include <gtest/gtest.h>

#include "store/store.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;

class PageSizeTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  std::unique_ptr<Store> Open() {
    StoreOptions options;
    options.pager.page_size = GetParam();
    options.pager.pool_frames = 64;
    auto opened = Store::OpenInMemory(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).value();
  }
};

TEST_P(PageSizeTest, MixedWorkloadBehavesIdentically) {
  auto store = Open();
  Random rng(GetParam());
  TokenSequence doc = GenerateRandomTree(&rng, 120, 6);
  ASSERT_LAXML_OK(store->InsertTopLevel(doc).status());
  // Updates that split, delete and replace.
  ASSERT_LAXML_OK(store->InsertIntoLast(1, MustFragment("<tail/>")).status());
  ASSERT_LAXML_OK(
      store->InsertIntoFirst(1, MustFragment("<head/>")).status());
  NodeId victim = 5;
  if (store->Exists(victim)) {
    ASSERT_LAXML_OK(store->DeleteNode(victim));
  }
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  ASSERT_LAXML_OK(CheckWellFormedFragment(all));
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST_P(PageSizeTest, PayloadsLargerThanPageOverflow) {
  auto store = Open();
  std::string big(GetParam() * 5, 'O');
  SequenceBuilder b;
  b.BeginElement("blob").Text(big).End();
  ASSERT_LAXML_OK(store->InsertTopLevel(b.Build()).status());
  ASSERT_OK_AND_ASSIGN(TokenSequence text, store->Read(2));
  ASSERT_EQ(text.size(), 1u);
  EXPECT_EQ(text[0].value, big);
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST_P(PageSizeTest, ReopenWorksAtEverySize) {
  testing::TempFile tmp("pagesize" + std::to_string(GetParam()));
  StoreOptions options;
  options.pager.page_size = GetParam();
  std::string expected;
  {
    auto opened = Store::Open(tmp.path(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto store = std::move(opened).value();
    for (int i = 0; i < 25; ++i) {
      ASSERT_LAXML_OK(
          store->LoadXml("<r n=\"" + std::to_string(i) + "\">text " +
                         std::to_string(i) + "</r>")
              .status());
    }
    ASSERT_OK_AND_ASSIGN(expected, store->SerializeToXml());
  }
  {
    auto opened = Store::Open(tmp.path(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ASSERT_OK_AND_ASSIGN(std::string back, (*opened)->SerializeToXml());
    EXPECT_EQ(back, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageSizeTest,
                         ::testing::Values(512u, 1024u, 4096u, 32768u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "P" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace laxml
