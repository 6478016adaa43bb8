// Whole-store reads: Read() and ReadWithIds() over a scan whose output
// spans several huge-page blocks (the part of it they advise), and
// SerializeToXml()'s streamed text against a serialized Read().

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/huge_pages.h"
#include "common/random.h"
#include "store/cursor.h"
#include "store/store.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;

std::unique_ptr<Store> OpenStore(IndexMode mode) {
  StoreOptions options;
  options.index_mode = mode;
  options.pager.pool_frames = 64;
  auto opened = Store::OpenInMemory(options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

/// Every token and id of a header-and-strings cursor walk.
void WalkStore(Store* store, TokenSequence* tokens, std::vector<NodeId>* ids) {
  auto cursor = store->NewCursor();
  ASSERT_LAXML_OK(cursor->SeekToFirst());
  while (cursor->Valid()) {
    tokens->push_back(cursor->token());
    ids->push_back(cursor->node_id());
    ASSERT_LAXML_OK(cursor->Next());
  }
}

TEST(WholeStoreReadTest, ScanAcrossHugePageBlocksMatchesCursorWalk) {
  for (IndexMode mode : {IndexMode::kFullIndex, IndexMode::kRangeIndex}) {
    SCOPED_TRACE(mode == IndexMode::kFullIndex ? "full" : "range");
    auto store = OpenStore(mode);
    ASSERT_NE(store, nullptr);
    Random rng(7);
    ASSERT_LAXML_OK(
        store->InsertTopLevel(GeneratePurchaseOrdersDocument(&rng, 900, 8))
            .status());
    TokenSequence walked;
    std::vector<NodeId> walked_ids;
    ASSERT_NO_FATAL_FAILURE(WalkStore(store.get(), &walked, &walked_ids));
    ASSERT_GE(walked.size(), 100000u);
    ASSERT_GE(walked.size() * sizeof(Token), 3 * kHugePageBytes)
        << "the scan output must hold whole advised blocks";

    ASSERT_OK_AND_ASSIGN(TokenSequence read, store->Read());
    EXPECT_EQ(read, walked);
    std::vector<NodeId> ids;
    ASSERT_OK_AND_ASSIGN(TokenSequence with_ids, store->ReadWithIds(&ids));
    EXPECT_EQ(with_ids, walked);
    EXPECT_EQ(ids, walked_ids);
  }
}

// Applies `rounds` mutations at random elements, each picked from the
// ids current after the last: two inserts of a fragment holding every
// escape the writer makes, then a delete.
void InsertAndDelete(Store* store, Random* rng, int rounds) {
  const TokenSequence note = MustFragment(
      "<note by=\"&quot;q&quot; &amp; &lt;r&gt;\">a &lt; b &amp; c"
      "<!--c--><?pi d?><e/></note>");
  for (int r = 0; r < rounds; ++r) {
    std::vector<NodeId> ids;
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->ReadWithIds(&ids));
    std::vector<NodeId> elements;
    for (size_t i = 1; i < all.size(); ++i) {
      if (all[i].type == TokenType::kBeginElement) elements.push_back(ids[i]);
    }
    ASSERT_FALSE(elements.empty());
    const NodeId target = elements[rng->Uniform(elements.size())];
    if (r % 3 == 2) {
      ASSERT_LAXML_OK(store->DeleteNode(target));
    } else {
      ASSERT_LAXML_OK(store->InsertIntoLast(target, note).status());
    }
  }
}

TEST(WholeStoreReadTest, SerializeToXmlEqualsSerializedRead) {
  struct Doc {
    const char* name;
    TokenSequence (*make)(Random*);
  };
  const Doc docs[] = {
      {"po",
       [](Random* rng) { return GeneratePurchaseOrdersDocument(rng, 40, 5); }},
      {"auction", [](Random* rng) { return GenerateAuctionDocument(rng, 60); }},
      {"catalog", [](Random* rng) { return GenerateCatalogDocument(rng, 60); }},
  };
  for (const Doc& doc : docs) {
    for (bool capped : {false, true}) {
      SCOPED_TRACE(std::string(doc.name) + (capped ? " capped" : " full"));
      auto store = OpenStore(IndexMode::kRangeIndex);
      ASSERT_NE(store, nullptr);
      if (capped) store->name_dictionary()->set_byte_budget(1);
      Random rng(11);
      ASSERT_LAXML_OK(store->InsertTopLevel(doc.make(&rng)).status());
      ASSERT_NO_FATAL_FAILURE(InsertAndDelete(store.get(), &rng, 30));
      ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
      ASSERT_OK_AND_ASSIGN(std::string want, SerializeTokens(all));
      ASSERT_OK_AND_ASSIGN(std::string got, store->SerializeToXml());
      EXPECT_EQ(got, want);
    }
  }
}

TEST(WholeStoreReadTest, SerializeToXmlOfAnEmptyStoreIsEmpty) {
  auto store = OpenStore(IndexMode::kRangeIndex);
  ASSERT_NE(store, nullptr);
  ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
  EXPECT_EQ(xml, "");
}

}  // namespace
}  // namespace laxml
