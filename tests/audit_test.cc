// Tests for the cross-layer invariant auditor (src/audit/): clean
// stores verify clean in every index mode, mutation histories stay
// clean, and deliberately planted inconsistencies are detected with the
// right layer and coordinates.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "audit/audit_report.h"
#include "audit/store_auditor.h"
#include "index/structural_index.h"
#include "query/xpath_stream.h"
#include "store/store.h"
#include "test_util.h"

namespace laxml {
namespace {

using ::laxml::testing::IndexConfig;
using ::laxml::testing::kPartialIndexConfig;
using ::laxml::testing::MustFragment;
using ::laxml::testing::TempFile;

StoreOptions OptionsFor(const IndexConfig& config) {
  StoreOptions options;
  config.ApplyTo(&options);
  return options;
}

AuditReport Audit(Store* store, AuditOptions options = {}) {
  StoreAuditor auditor(store);
  return auditor.Run(options);
}

class AuditModesTest : public ::testing::TestWithParam<IndexConfig> {};

TEST_P(AuditModesTest, EmptyStoreIsClean) {
  ASSERT_OK_AND_ASSIGN(auto store,
                       Store::OpenInMemory(OptionsFor(GetParam())));
  AuditReport report = Audit(store.get());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_LAXML_OK(store->CheckIntegrity());
}

TEST_P(AuditModesTest, MutationHistoryStaysClean) {
  ASSERT_OK_AND_ASSIGN(auto store,
                       Store::OpenInMemory(OptionsFor(GetParam())));
  ASSERT_OK_AND_ASSIGN(NodeId first,
                       store->LoadXml("<root><a>one</a><b>two</b></root>"));
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(
        NodeId id, store->InsertIntoLast(
                       first, MustFragment("<item n='" +
                                           std::to_string(i) + "'>x</item>")));
    if (i % 3 == 0) {
      ASSERT_LAXML_OK(store->DeleteNode(id));
    } else if (i % 3 == 1) {
      ASSERT_OK_AND_ASSIGN(id,
                           store->ReplaceNode(id, MustFragment("<r/>")));
      // Exercise the partial index so the audit has memos to verify.
      ASSERT_OK_AND_ASSIGN(auto subtree, store->Read(id));
      (void)subtree;
    }
  }
  AuditReport report = Audit(store.get());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.ranges_walked, 0u);
  EXPECT_GT(report.tokens_scanned, 0u);
  EXPECT_LAXML_OK(store->CheckIntegrity());
}

TEST_P(AuditModesTest, CompactionStaysClean) {
  ASSERT_OK_AND_ASSIGN(auto store,
                       Store::OpenInMemory(OptionsFor(GetParam())));
  ASSERT_OK_AND_ASSIGN(NodeId first, store->LoadXml("<root/>"));
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK_AND_ASSIGN(
        NodeId id,
        store->InsertIntoLast(first, MustFragment("<n>payload</n>")));
    (void)id;
  }
  ASSERT_OK_AND_ASSIGN(uint64_t merges, store->CompactRanges(64 * 1024));
  (void)merges;
  AuditReport report = Audit(store.get());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(AllModes, AuditModesTest,
                         ::testing::ValuesIn(testing::kIndexConfigs));

TEST(AuditTest, FileBackedStoreWithWalIsClean) {
  TempFile file("audit_wal");
  StoreOptions options = OptionsFor(kPartialIndexConfig);
  options.enable_wal = true;
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), options));
  ASSERT_OK_AND_ASSIGN(NodeId first, store->LoadXml("<doc><x>1</x></doc>"));
  ASSERT_OK_AND_ASSIGN(
      NodeId id, store->InsertIntoLast(first, MustFragment("<y>2</y>")));
  (void)id;
  AuditReport report = Audit(store.get());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.wal_records, 0u);
}

TEST(AuditTest, StalePartialMemoIsDetectedWithCoordinates) {
  ASSERT_OK_AND_ASSIGN(
      auto store, Store::OpenInMemory(OptionsFor(kPartialIndexConfig)));
  ASSERT_OK_AND_ASSIGN(NodeId first, store->LoadXml("<root><a>x</a></root>"));
  (void)first;
  // Plant a memo whose offset is not a token boundary: node 2 ("a")
  // allegedly begins at byte 1 of the first range.
  RangeId range = store->range_manager().first_range();
  store->mutable_partial_index().Record(
      /*id=*/2, PartialEntry::kBegin,
      {range, /*offset=*/1, /*token_index=*/7, /*begins_before=*/0});
  AuditReport report = Audit(store.get());
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const AuditIssue& issue : report.issues) {
    if (issue.layer == AuditLayer::kPartialIndex && issue.node == 2 &&
        issue.range == range && issue.has_offset && issue.offset == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.ToString();
  EXPECT_FALSE(store->CheckIntegrity().ok());
}

TEST(AuditTest, MemoPointingAtWrongNodeIsDetected) {
  ASSERT_OK_AND_ASSIGN(
      auto store, Store::OpenInMemory(OptionsFor(kPartialIndexConfig)));
  ASSERT_LAXML_OK(store->LoadXml("<root><a>x</a><b>y</b></root>").status());
  // Locate node 2 legitimately, then re-point its memo at offset 0 —
  // a real token boundary, but the begin token of node 1, not node 2.
  ASSERT_OK_AND_ASSIGN(auto subtree, store->Read(2));
  (void)subtree;
  RangeId range = store->range_manager().first_range();
  store->mutable_partial_index().Record(
      /*id=*/2, PartialEntry::kBegin,
      {range, /*offset=*/0, /*token_index=*/0, /*begins_before=*/0});
  AuditReport report = Audit(store.get());
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const AuditIssue& issue : report.issues) {
    if (issue.layer == AuditLayer::kPartialIndex && issue.node == 2) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST(AuditTest, BeginMemoWithWrongBeginCountIsDetected) {
  ASSERT_OK_AND_ASSIGN(
      auto store, Store::OpenInMemory(OptionsFor(kPartialIndexConfig)));
  ASSERT_LAXML_OK(store->LoadXml("<root><a>x</a></root>").status());
  ASSERT_LAXML_OK(store->Read(2).status());  // memoizes node 2 legitimately
  EXPECT_TRUE(Audit(store.get()).ok());
  // Same token, one node begin too many: a split there would misnumber
  // the tail's ids.
  PartialEntry e;
  ASSERT_TRUE(store->mutable_partial_index().Lookup(2, &e));
  ASSERT_TRUE(e.begin.has_value());
  ASSERT_EQ(e.begin->begins_before, 1u);
  TokenPos wrong = *e.begin;
  wrong.begins_before = 2;
  store->mutable_partial_index().Record(2, PartialEntry::kBegin, wrong);
  AuditReport report = Audit(store.get());
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const AuditIssue& issue : report.issues) {
    if (issue.layer == AuditLayer::kPartialIndex && issue.node == 2 &&
        issue.message.find("begin memo begins_before is 2, actual 1") !=
            std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.ToString();
}

bool HasIssue(const AuditReport& report, AuditLayer layer,
              const std::string& needle) {
  for (const AuditIssue& issue : report.issues) {
    if (issue.layer == layer &&
        issue.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(AuditTest, ResidentLocationDriftIsDetected) {
  ASSERT_OK_AND_ASSIGN(
      auto store, Store::OpenInMemory(OptionsFor(kPartialIndexConfig)));
  ASSERT_OK_AND_ASSIGN(NodeId root, store->LoadXml("<root><a>x</a></root>"));
  ASSERT_LAXML_OK(store->InsertIntoLast(root, MustFragment("<b>y</b>")));
  RangeManager& ranges = store->TestOnlyRangeManager();
  auto& resident = ranges.TestOnlyLocations();
  const RangeId range = ranges.first_range();
  const RecordLocation saved = resident.at(range);
  auto has_issue = [](const AuditReport& report, const std::string& needle,
                      RangeId at) {
    for (const AuditIssue& issue : report.issues) {
      if (issue.layer == AuditLayer::kBTree && issue.range == at &&
          issue.message.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  };

  // One entry drifts: its length no longer matches its RangeMeta's.
  resident[range].len = saved.len + 1;
  AuditReport report = Audit(store.get());
  EXPECT_TRUE(has_issue(report, "resident location has", range))
      << report.ToString();
  EXPECT_FALSE(store->CheckIntegrity().ok());
  resident[range] = saved;
  EXPECT_LAXML_OK(store->CheckIntegrity());

  // The resident map holds an entry the meta tree lacks: the counts
  // differ.
  const RangeId stray = ranges.state().next_range_id + 7;
  resident[stray] = saved;
  report = Audit(store.get());
  EXPECT_TRUE(has_issue(report, "resident map has", kInvalidRangeId))
      << report.ToString();
  EXPECT_FALSE(store->CheckIntegrity().ok());
  resident.erase(stray);

  // A range the meta tree has is missing from the resident map.
  resident.erase(range);
  report = Audit(store.get());
  EXPECT_TRUE(has_issue(report, "resident map has", kInvalidRangeId))
      << report.ToString();
  resident[range] = saved;
  EXPECT_LAXML_OK(store->CheckIntegrity());
}

// A store of several ranges, one per insert, all inline.
std::unique_ptr<Store> StoreOfThreeRanges() {
  auto store = Store::OpenInMemory(OptionsFor(kPartialIndexConfig));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return nullptr;
  auto root = (*store)->LoadXml("<root><a>x</a></root>");
  EXPECT_TRUE(root.ok());
  EXPECT_TRUE((*store)->InsertIntoLast(*root, MustFragment("<b>y</b>")).ok());
  EXPECT_GE((*store)->range_manager().range_count(), 3u);
  EXPECT_TRUE((*store)->CheckIntegrity().ok());
  return std::move(store).value();
}

TEST(AuditTest, RangeMetaPointingAtADeadSlotIsDetected) {
  auto store = StoreOfThreeRanges();
  ASSERT_NE(store, nullptr);
  RangeManager& ranges = store->TestOnlyRangeManager();
  // A second record keeps the heap page alive once the payload goes.
  ASSERT_OK_AND_ASSIGN(RecordLocation keep,
                       ranges.range_records()->Place(Slice(std::string("keep"))));
  ASSERT_OK_AND_ASSIGN(RangeMeta last, ranges.GetMeta(ranges.last_range()));
  ASSERT_EQ(keep.page, last.page);
  ASSERT_LAXML_OK(ranges.range_records()->Remove(last.location()));
  AuditReport report = Audit(store.get());
  EXPECT_TRUE(HasIssue(report, AuditLayer::kSlottedPage,
                       "range meta points at a dead slot"))
      << report.ToString();
  EXPECT_FALSE(store->CheckIntegrity().ok());
}

TEST(AuditTest, LeakedHeapSlotIsDetected) {
  auto store = StoreOfThreeRanges();
  ASSERT_NE(store, nullptr);
  // A payload placed in the heap that no RangeMeta points at.
  ASSERT_OK_AND_ASSIGN(
      RecordLocation leaked,
      store->TestOnlyRangeManager().range_records()->Place(Slice(std::string("orphan"))));
  AuditReport report = Audit(store.get());
  bool found = false;
  for (const AuditIssue& issue : report.issues) {
    if (issue.layer == AuditLayer::kSlottedPage &&
        issue.page == leaked.page && issue.slot == leaked.slot &&
        issue.message.find("anchors no range") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.ToString();
  EXPECT_FALSE(store->CheckIntegrity().ok());
}

TEST(AuditTest, HeapSlotSharedByTwoRangesIsDetected) {
  auto store = StoreOfThreeRanges();
  ASSERT_NE(store, nullptr);
  RangeManager& ranges = store->TestOnlyRangeManager();
  ASSERT_OK_AND_ASSIGN(RangeMeta first, ranges.GetMeta(ranges.first_range()));
  ASSERT_OK_AND_ASSIGN(RangeMeta last, ranges.GetMeta(ranges.last_range()));
  // The last range's meta now names the first range's payload slot.
  last.page = first.page;
  last.slot = first.slot;
  last.kind = first.kind;
  ASSERT_LAXML_OK(ranges.TestOnlyPutMeta(last));
  AuditReport report = Audit(store.get());
  EXPECT_TRUE(HasIssue(report, AuditLayer::kSlottedPage,
                       "heap slot anchors ranges " + std::to_string(first.id) +
                           " and " + std::to_string(last.id)))
      << report.ToString();
  EXPECT_FALSE(store->CheckIntegrity().ok());
}

/// A store whose lazy structural index holds warm <item> and
/// @category postings.
std::unique_ptr<Store> StoreWithAttributePostings() {
  auto store = Store::OpenInMemory(StoreOptions{});
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return nullptr;
  EXPECT_TRUE((*store)
                  ->LoadXml("<root><item category='books'>x</item>"
                            "<item category='toys'/></root>")
                  .ok());
  auto ids = EvaluateXPathStreaming(**store, "//item/@category");
  EXPECT_TRUE(ids.ok() && ids->size() == 2u);
  EXPECT_TRUE(Audit(store->get()).ok());
  return std::move(store).value();
}

/// True when `report` has a structural-index issue about `node`.
bool HasStructuralIssue(const AuditReport& report, NodeId node) {
  for (const AuditIssue& issue : report.issues) {
    if (issue.layer == AuditLayer::kStructuralIndex && issue.node == node) {
      return true;
    }
  }
  return false;
}

TEST(AuditTest, AttributePostingOnAnElementIsDetected) {
  std::unique_ptr<Store> store = StoreWithAttributePostings();
  ASSERT_NE(store, nullptr);
  StructuralIndex* index = store->structural_index();
  StructuralIndex::EntryList items = index->LookupTag("item");
  ASSERT_NE(items, nullptr);
  ASSERT_FALSE(items->empty());
  // The <item> entries filed under the attribute key: begin tokens that
  // are elements, not attributes.
  index->Publish("@category", *items);
  AuditReport report = Audit(store.get());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasStructuralIssue(report, (*items)[0].id))
      << report.ToString();
}

TEST(AuditTest, AttributePostingWithWrongPostIsDetected) {
  std::unique_ptr<Store> store = StoreWithAttributePostings();
  ASSERT_NE(store, nullptr);
  StructuralIndex* index = store->structural_index();
  StructuralIndex::EntryList list = index->LookupTag("@category");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 2u);
  std::vector<StructuralEntry> bogus = *list;
  bogus[1].post += 1;
  index->Publish("@category", bogus);
  AuditReport report = Audit(store.get());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasStructuralIssue(report, bogus[1].id)) << report.ToString();
}

TEST(AuditTest, PostingWithWrongParentIsDetected) {
  // [n] counts candidates per parent_pre: an element memoized under its
  // grandparent (the virtual root here) would be numbered among the
  // wrong siblings.
  std::unique_ptr<Store> store = StoreWithAttributePostings();
  ASSERT_NE(store, nullptr);
  StructuralIndex* index = store->structural_index();
  StructuralIndex::EntryList items = index->LookupTag("item");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->size(), 2u);
  std::vector<StructuralEntry> bogus = *items;
  ASSERT_EQ(bogus[1].parent_pre, 0u);  // <root> begins the stream
  bogus[1].parent_pre = kNoParent;
  index->Publish("item", bogus);
  AuditReport report = Audit(store.get());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasStructuralIssue(report, bogus[1].id)) << report.ToString();
}

TEST(AuditTest, WrongValueKeyIsDetected) {
  // The auditor derives each key from decoded tokens, not through the
  // warmer, so a key no value in the stream has is caught.
  std::unique_ptr<Store> store = StoreWithAttributePostings();
  ASSERT_NE(store, nullptr);
  StructuralIndex* index = store->structural_index();
  for (const char* tag : {"@category", "item"}) {
    StructuralIndex::EntryList list = index->LookupTag(tag);
    ASSERT_NE(list, nullptr) << tag;
    ASSERT_EQ(list->size(), 2u) << tag;
    std::vector<StructuralEntry> bogus = *list;
    // "books" -> "toys"; the text leaf "x" -> "y".
    bogus[0].value_key =
        StructuralValueKey(tag[0] == '@' ? "toys" : "y");
    index->Publish(tag, bogus);
    AuditReport report = Audit(store.get());
    ASSERT_FALSE(report.ok()) << tag;
    EXPECT_TRUE(HasStructuralIssue(report, bogus[0].id))
        << report.ToString();
    index->Publish(tag, *list);
    EXPECT_TRUE(Audit(store.get()).ok()) << tag;
  }
}

TEST(AuditTest, MisPartitionedPostingIsDetected) {
  // <n> on two label paths. Republished with the first <n> filed under
  // the second's path, its partition no longer matches the stream.
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(StoreOptions{}));
  ASSERT_LAXML_OK(
      store->LoadXml("<doc><a><n/></a><b><n/><n/></b></doc>").status());
  ASSERT_LAXML_OK(EvaluateXPathStreaming(*store, "//n").status());
  ASSERT_TRUE(Audit(store.get()).ok());
  StructuralIndex* index = store->structural_index();
  StructuralIndex::TagPostings n = index->LookupPostings("n");
  ASSERT_NE(n.list, nullptr);
  ASSERT_EQ(n.partitions->size(), 2u);
  const uint32_t under_a = (*n.partitions)[0].path->id;
  const uint32_t under_b = (*n.partitions)[1].path->id;
  ASSERT_EQ((*n.partitions)[0].path->ToString(), "/doc/a/n");
  index->Publish("n", *n.list, {under_b, under_b, under_b});
  AuditReport report = Audit(store.get());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasStructuralIssue(report, (*n.list)[0].id))
      << report.ToString();
  EXPECT_NE(report.ToString().find("path summary"), std::string::npos)
      << report.ToString();
  // The right ids audit clean again.
  index->Publish("n", *n.list, {under_a, under_b, under_b});
  EXPECT_TRUE(Audit(store.get()).ok());
}

TEST(AuditTest, WrongElementShapeIsDetected) {
  // Empty, text leaf and mixed elements, each keyed as another shape.
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(StoreOptions{}));
  ASSERT_LAXML_OK(
      store->LoadXml("<root><e k='1'/><l>y</l><m>x<b/></m></root>").status());
  for (const char* expr : {"//e", "//l", "//m"}) {
    ASSERT_LAXML_OK(EvaluateXPathStreaming(*store, expr).status());
  }
  ASSERT_TRUE(Audit(store.get()).ok());
  struct Plant {
    const char* tag;
    uint64_t key;
  };
  const Plant plants[] = {
      {"e", kMixedValueKey},           // empty, keyed mixed
      {"l", kMixedValueKey},           // text leaf, keyed mixed
      {"m", StructuralValueKey("x")},  // mixed, keyed as a leaf of "x"
      {"m", StructuralValueKey("")},   // mixed, keyed empty
  };
  StructuralIndex* index = store->structural_index();
  for (const Plant& plant : plants) {
    StructuralIndex::EntryList list = index->LookupTag(plant.tag);
    ASSERT_NE(list, nullptr) << plant.tag;
    ASSERT_EQ(list->size(), 1u) << plant.tag;
    std::vector<StructuralEntry> bogus = *list;
    ASSERT_NE(bogus[0].value_key, plant.key) << plant.tag;
    bogus[0].value_key = plant.key;
    index->Publish(plant.tag, bogus);
    AuditReport report = Audit(store.get());
    ASSERT_FALSE(report.ok()) << plant.tag;
    EXPECT_TRUE(HasStructuralIssue(report, bogus[0].id))
        << report.ToString();
    EXPECT_NE(report.ToString().find("value key"), std::string::npos)
        << report.ToString();
    index->Publish(plant.tag, *list);
  }
  EXPECT_TRUE(Audit(store.get()).ok());
}

TEST(AuditTest, LayertogglesSkipLegs) {
  ASSERT_OK_AND_ASSIGN(
      auto store, Store::OpenInMemory(OptionsFor(kPartialIndexConfig)));
  ASSERT_LAXML_OK(store->LoadXml("<root><a>x</a></root>").status());
  store->mutable_partial_index().Record(
      2, PartialEntry::kBegin,
      {store->range_manager().first_range(), 1, 7, 0});
  AuditOptions options;
  options.check_partial_index = false;
  AuditReport report = Audit(store.get(), options);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditTest, MaxIssuesTruncates) {
  ASSERT_OK_AND_ASSIGN(
      auto store, Store::OpenInMemory(OptionsFor(kPartialIndexConfig)));
  ASSERT_LAXML_OK(store->LoadXml("<root><a>x</a><b>y</b></root>").status());
  RangeId range = store->range_manager().first_range();
  for (NodeId id = 2; id <= 5; ++id) {
    store->mutable_partial_index().Record(id, PartialEntry::kBegin,
                                          {range, 1, 7, 0});
  }
  AuditOptions options;
  options.max_issues = 2;
  AuditReport report = Audit(store.get(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_LE(report.issues.size(), 2u);
  EXPECT_TRUE(report.truncated);
}

TEST(AuditTest, IssueRenderingCarriesCoordinates) {
  AuditIssue issue;
  issue.layer = AuditLayer::kSlottedPage;
  issue.message = "something is off";
  issue.page = 7;
  issue.slot = 2;
  std::string text = issue.ToString();
  EXPECT_NE(text.find("[slotted-page]"), std::string::npos) << text;
  EXPECT_NE(text.find("page 7"), std::string::npos) << text;
  EXPECT_NE(text.find("slot 2"), std::string::npos) << text;
}

TEST(AuditTest, ParanoidIntervalAuditsAutomatically) {
  StoreOptions options = OptionsFor(kPartialIndexConfig);
  options.paranoid_audit_interval = 4;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  ASSERT_OK_AND_ASSIGN(NodeId first, store->LoadXml("<root/>"));
  for (int i = 0; i < 12; ++i) {
    ASSERT_OK_AND_ASSIGN(
        NodeId id, store->InsertIntoLast(first, MustFragment("<n/>")));
    (void)id;
  }
  // Poison the partial index with a memo into a range that does not
  // exist (so no later invalidation can quietly repair it), then mutate
  // until the auto-audit trips.
  store->mutable_partial_index().Record(
      2, PartialEntry::kBegin,
      {/*range=*/9999, /*offset=*/1, /*token_index=*/7, /*begins_before=*/0});
  Status st = Status::OK();
  for (int i = 0; i < 8 && st.ok(); ++i) {
    st = store->InsertIntoLast(first, MustFragment("<m/>")).status();
  }
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

}  // namespace
}  // namespace laxml
