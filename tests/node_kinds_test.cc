// Explicit semantics for operations targeting every node kind of the
// XQuery Data Model — attributes, text, comments, PIs — not just
// elements. The property tests cover these paths statistically; this
// file documents the intended behavior case by case.

#include <gtest/gtest.h>

#include "store/store.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::MustSerialize;

class NodeKindsTest
    : public ::testing::TestWithParam<testing::IndexConfig> {
 protected:
  void SetUp() override {
    StoreOptions options;
    GetParam().ApplyTo(&options);
    ASSERT_OK_AND_ASSIGN(store_, Store::OpenInMemory(options));
    // <doc a="v"><!--note-->text<?pi data?><kid/></doc>
    // ids: doc=1 @a=2 comment=3 text=4 pi=5 kid=6
    ASSERT_LAXML_OK(
        store_
            ->LoadXml("<doc a=\"v\"><!--note-->text<?pi data?><kid/></doc>")
            .status());
  }

  std::string Xml() { return *store_->SerializeToXml(); }

  std::unique_ptr<Store> store_;
};

TEST_P(NodeKindsTest, ReadEachKind) {
  // Attribute nodes are begin/end token pairs (paper Figure 1 model).
  ASSERT_OK_AND_ASSIGN(TokenSequence attr, store_->Read(2));
  ASSERT_EQ(attr.size(), 2u);
  EXPECT_EQ(attr[0], Token::BeginAttribute("a", "v"));
  EXPECT_EQ(attr[1], Token::EndAttribute());
  ASSERT_OK_AND_ASSIGN(TokenSequence comment, store_->Read(3));
  EXPECT_EQ(comment[0], Token::Comment("note"));
  ASSERT_OK_AND_ASSIGN(TokenSequence text, store_->Read(4));
  EXPECT_EQ(text[0], Token::Text("text"));
  ASSERT_OK_AND_ASSIGN(TokenSequence pi, store_->Read(5));
  EXPECT_EQ(pi[0], Token::PI("pi", "data"));
}

TEST_P(NodeKindsTest, DeleteTextNode) {
  ASSERT_LAXML_OK(store_->DeleteNode(4));
  EXPECT_EQ(Xml(), "<doc a=\"v\"><!--note--><?pi data?><kid/></doc>");
  EXPECT_FALSE(store_->Exists(4));
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(NodeKindsTest, DeleteCommentAndPI) {
  ASSERT_LAXML_OK(store_->DeleteNode(3));
  ASSERT_LAXML_OK(store_->DeleteNode(5));
  EXPECT_EQ(Xml(), "<doc a=\"v\">text<kid/></doc>");
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(NodeKindsTest, DeleteAttributeNode) {
  ASSERT_LAXML_OK(store_->DeleteNode(2));
  EXPECT_EQ(Xml(), "<doc><!--note-->text<?pi data?><kid/></doc>");
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(NodeKindsTest, ReplaceTextNode) {
  TokenSequence replacement{Token::Text("better text")};
  ASSERT_LAXML_OK(store_->ReplaceNode(4, replacement).status());
  EXPECT_EQ(Xml(),
            "<doc a=\"v\"><!--note-->better text<?pi data?><kid/></doc>");
}

TEST_P(NodeKindsTest, ReplaceAttributeWithAttribute) {
  TokenSequence replacement{Token::BeginAttribute("b", "w"),
                            Token::EndAttribute()};
  ASSERT_LAXML_OK(store_->ReplaceNode(2, replacement).status());
  EXPECT_EQ(Xml(), "<doc b=\"w\"><!--note-->text<?pi data?><kid/></doc>");
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(NodeKindsTest, InsertSiblingsAroundTextAndPI) {
  ASSERT_LAXML_OK(
      store_->InsertBefore(4, {Token::Comment("pre")}).status());
  ASSERT_LAXML_OK(store_->InsertAfter(5, {Token::Text("tail")}).status());
  EXPECT_EQ(Xml(),
            "<doc a=\"v\"><!--note--><!--pre-->text<?pi data?>tail"
            "<kid/></doc>");
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_P(NodeKindsTest, ContentOpsRejectLeafKinds) {
  // Text, comments, PIs and attributes cannot have children.
  for (NodeId leaf : {2ull, 3ull, 4ull, 5ull}) {
    EXPECT_TRUE(store_->InsertIntoFirst(leaf, MustFragment("<x/>"))
                    .status()
                    .IsInvalidArgument())
        << leaf;
    EXPECT_TRUE(store_->InsertIntoLast(leaf, MustFragment("<x/>"))
                    .status()
                    .IsInvalidArgument())
        << leaf;
    EXPECT_TRUE(store_->ReplaceContent(leaf, MustFragment("<x/>"))
                    .status()
                    .IsInvalidArgument())
        << leaf;
  }
}

TEST_P(NodeKindsTest, AttributesAreLegalInsertionContent) {
  // Adding an attribute node to an element (XQuery DM permits it; the
  // application controls placement).
  TokenSequence attr{Token::BeginAttribute("extra", "1"),
                     Token::EndAttribute()};
  ASSERT_LAXML_OK(store_->InsertIntoFirst(1, attr).status());
  EXPECT_EQ(Xml(),
            "<doc extra=\"1\" a=\"v\"><!--note-->text<?pi data?>"
            "<kid/></doc>");
}

INSTANTIATE_TEST_SUITE_P(AllIndexModes, NodeKindsTest,
                         ::testing::ValuesIn(testing::kIndexConfigs),
                         testing::IndexConfigName);

}  // namespace
}  // namespace laxml
