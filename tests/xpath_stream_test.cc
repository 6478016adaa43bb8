// Streaming XPath tests: exact agreement with the reference oracle
// (tests/xpath_oracle.h) across hand-written cases, predicates,
// generated documents, and fragmented stores; the warm plan of each
// path, join or scan (nested same-name elements, values across range
// boundaries, dead subtrees passed on range metadata, attributes
// spliced after children); the path summary's partitions (recursive
// labels, [n] after '*', one label path under inline and symbol-coded
// names); plus the 64-step NotSupported boundary.

#include "query/xpath_stream.h"

#include <gtest/gtest.h>

#include <string>

#include "index/structural_index.h"
#include "obs/request_context.h"
#include "query/explain.h"
#include "query/xpath_parser.h"
#include "store/store.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "xpath_oracle.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::XPathOracle;

std::unique_ptr<Store> StoreWith(const TokenSequence& doc,
                                 uint32_t max_range_bytes = 0) {
  StoreOptions options;
  options.max_range_bytes = max_range_bytes;
  options.pager.page_size = 512;
  auto opened = Store::OpenInMemory(options);
  EXPECT_TRUE(opened.ok());
  auto store = std::move(opened).value();
  EXPECT_TRUE(store->InsertTopLevel(doc).ok());
  return store;
}

void ExpectAgreement(Store* store, const char* expr) {
  XPathOracle oracle(store);
  ASSERT_OK_AND_ASSIGN(auto streamed, EvaluateXPathStreaming(*store, expr));
  ASSERT_OK_AND_ASSIGN(auto expected, oracle.Evaluate(expr));
  EXPECT_EQ(streamed, expected) << expr;
}

TEST(XPathStreamTest, BasicAxesAndTests) {
  auto store = StoreWith(MustFragment(
      "<site><a id=\"1\"><b>x</b><b>y</b></a><c><b>z</b>"
      "<!--note--></c></site>"));
  struct Case {
    const char* expr;
    size_t expected;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"/site", 1},
           {"/site/a/b", 2},
           {"//b", 3},
           {"//b/text()", 3},
           {"/site/*", 2},
           {"//comment()", 1},
           {"//a/@id", 1},
           {"//@id", 1},
           {"/site/node()", 2},
           {"/nothing", 0},
           {"//a//text()", 2},
       }) {
    ASSERT_OK_AND_ASSIGN(auto hits,
                         EvaluateXPathStreaming(*store, c.expr));
    EXPECT_EQ(hits.size(), c.expected) << c.expr;
  }
}

TEST(XPathStreamTest, PredicatesStream) {
  auto store = StoreWith(MustFragment(
      "<r><a k=\"1\"><b>x</b><b>y</b></a><a><c>x<d/>y</c></a>"
      "<a k=\"2\"><a><b>xy</b></a></a></r>"));
  struct Case {
    const char* expr;
    size_t expected;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"/r/a[1]", 1},
           {"/r/a[3]/a", 1},
           {"//a/b[2]", 1},
           {"//a[b]", 2},
           {"//a[@k]", 2},
           {"//a[@k='2']//b", 1},
           {"//a[c='xy']", 1},        // text split around <d/>
           {"//a[b='xy']", 1},
           {"//a[b='x'][b='y']", 1},  // both predicates hold
           {"//a[b[2]]", 1},          // nested predicate
           {"//a[a/b]/@k", 1},
           {"//a[1][2]", 0},          // conflicting positions
           {"//a[b]/b[1]/text()", 2},
       }) {
    ASSERT_OK_AND_ASSIGN(auto hits,
                         EvaluateXPathStreaming(*store, c.expr));
    EXPECT_EQ(hits.size(), c.expected) << c.expr;
    ExpectAgreement(store.get(), c.expr);
  }
}

TEST(XPathStreamTest, PendingMatchesComeOutInDocumentOrder) {
  // //x[z]//y: the outer x decides only at its end, after the inner x
  // already released its y — the result still comes out in document
  // order, each node once.
  auto store = StoreWith(MustFragment(
      "<x><y/><x><y/><z/></x><y/><z/></x>"));
  ExpectAgreement(store.get(), "//x[z]//y");
  ASSERT_OK_AND_ASSIGN(auto hits, EvaluateXPathStreaming(*store, "//x[z]//y"));
  EXPECT_EQ(hits.size(), 3u);
  // An inner-only gate: the outer x has no <w/>, so only its nested y
  // counts.
  auto nested = StoreWith(MustFragment("<x><y/><x><y/><w/></x><y/></x>"));
  ASSERT_OK_AND_ASSIGN(auto inner,
                       EvaluateXPathStreaming(*nested, "//x[w]//y"));
  EXPECT_EQ(inner.size(), 1u);
  ExpectAgreement(nested.get(), "//x[w]//y");
}

TEST(XPathStreamTest, MoreThan64StepsAreNotSupported) {
  auto store = StoreWith(MustFragment("<a><b/></a>"));
  std::string deep = "/a";
  for (int i = 0; i < 63; ++i) deep += "/a";
  ASSERT_OK_AND_ASSIGN(XPathPath at_limit, ParseXPath(deep));
  EXPECT_LAXML_OK(EvaluateXPathStreaming(*store, at_limit));
  deep += "/a";
  ASSERT_OK_AND_ASSIGN(XPathPath over, ParseXPath(deep));
  EXPECT_TRUE(EvaluateXPathStreaming(*store, over).status().IsNotSupported());
  // Predicate steps count too, whether the tags are cold or warm: the
  // planner checks the limit before it picks the join or a scan, for
  // the evaluator and EXPLAIN alike.
  std::string with_pred = "/a[b";
  for (int i = 0; i < 63; ++i) with_pred += "/b";
  with_pred += "]";
  ASSERT_OK_AND_ASSIGN(XPathPath pred_over, ParseXPath(with_pred));
  EXPECT_TRUE(
      EvaluateXPathStreaming(*store, pred_over).status().IsNotSupported());
  EXPECT_TRUE(ExplainXPath(*store, with_pred).status().IsNotSupported());
  ASSERT_OK_AND_ASSIGN(XPathPath warm_up, ParseXPath("/a/b"));
  ASSERT_LAXML_OK(EvaluateXPathStreaming(*store, warm_up).status());
  ASSERT_NE(store->structural_index()->LookupTag("a"), nullptr);
  ASSERT_NE(store->structural_index()->LookupTag("b"), nullptr);
  EXPECT_TRUE(
      EvaluateXPathStreaming(*store, pred_over).status().IsNotSupported());
  EXPECT_TRUE(ExplainXPath(*store, with_pred).status().IsNotSupported());
}

TEST(XPathStreamTest, AgreesWithOracleOnAuctionDoc) {
  Random rng(4096);
  auto store = StoreWith(GenerateAuctionDocument(&rng, 60),
                         /*max_range_bytes=*/192);
  for (const char* expr :
       {"//item", "//item/name", "/site/people/person",
        "/site/regions/*/item", "//bidder/increase", "//@id",
        "//person/@id", "//open_auction//personref", "/site/*",
        "//name/text()", "//creditcard", "//person[creditcard]",
        "//item[@category='books']/name", "/site/regions/*/item[1]",
        "//open_auction[bidder/increase='3']", "//item[2]"}) {
    ExpectAgreement(store.get(), expr);
  }
}

TEST(XPathStreamTest, AgreesOnRandomTrees) {
  for (uint64_t seed : {5ull, 6ull, 7ull}) {
    Random rng(seed);
    auto store = StoreWith(GenerateRandomTree(&rng, 150, 6), 128);
    for (const char* expr : {"//*", "/root/*", "//text()", "//comment()",
                             "//*[2]", "//*[*]", "//*[@*]/node()[1]",
                             "//*/text()", "//@*", "/root//node()"}) {
      ExpectAgreement(store.get(), expr);
    }
  }
}

TEST(XPathStreamTest, SeesUpdatesWithoutRefresh) {
  // The streaming evaluator re-walks the live store on every call.
  auto store = StoreWith(MustFragment("<l><e/></l>"));
  ASSERT_OK_AND_ASSIGN(auto before, EvaluateXPathStreaming(*store, "//e"));
  EXPECT_EQ(before.size(), 1u);
  ASSERT_LAXML_OK(store->InsertIntoLast(1, MustFragment("<e/>")).status());
  ASSERT_OK_AND_ASSIGN(auto after, EvaluateXPathStreaming(*store, "//e"));
  EXPECT_EQ(after.size(), 2u);
}

// ---------------------------------------------------------------------------
// Warm plans: a path the gate accepts joins whole once warm; any other
// path stays a plain scan.

/// Runs `expr` cold (a full scan that warms the path's tags when the
/// gate accepts it), then warm, and checks both against the oracle and
/// the forced scan; the warm run must take `plan`.
void ExpectWarm(Store* store, const char* expr, const char* plan) {
  ExpectAgreement(store, expr);  // cold
  XPathOracle oracle(store);
  ASSERT_OK_AND_ASSIGN(auto expected, oracle.Evaluate(expr));
  ASSERT_OK_AND_ASSIGN(XPathPath path, ParseXPath(expr));
  obs::RequestContext rc;
  {
    obs::ScopedRequestContext scoped(&rc);
    ASSERT_OK_AND_ASSIGN(auto warm, EvaluateXPathStreaming(*store, path));
    EXPECT_EQ(warm, expected) << expr << " (warm)";
  }
#if !defined(LAXML_TRACING_DISABLED)
  ASSERT_NE(rc.plan, nullptr) << expr;
  EXPECT_STREQ(rc.plan, plan) << expr;
#endif
  ASSERT_OK_AND_ASSIGN(auto forced,
                       EvaluateXPathStreaming(*store, path,
                                              /*allow_structural_index=*/
                                              false));
  EXPECT_EQ(forced, expected) << expr << " (forced scan)";
}

TEST(XPathStreamTest, NestedSameNameElements) {
  // Nested <a> elements, one below a subtree (<x><y>) that holds no
  // other match.
  auto store = StoreWith(MustFragment(
      "<r><a k=\"1\"><b>1</b><x><y><a k=\"2\"><b>2</b><c/></a></y></x>"
      "<a><b>3</b><a k=\"3\"><b>4</b></a></a><c/></a>"
      "<a><c>5</c></a></r>"));
  for (const char* expr :
       {"//a/node()", "//a/*", "//a/@*", "//a//text()", "/r/a/*",
        "//a[b/text()='3']"}) {
    ExpectWarm(store.get(), expr, "stream-scan");
  }
  // '*' levels, a final '@name' or text() and the predicates a
  // semi-join answers join whole, nested or not.
  for (const char* expr :
       {"//a/@k", "//a/*/*/a/b", "//a/*/b/@k", "//a[b]", "//a[c]/b",
        "//a[@k='2']/b", "//a/b[1]", "//a[a]/c", "//a/b/text()",
        "//a[b='3']", "//a/x/y/a/b/text()", "//a/text()", "//a[b='1']",
        "//r[a='34']"}) {
    ExpectWarm(store.get(), expr, "structural-join");
  }
}

TEST(XPathStreamTest, WarmPlansAcrossRangeBoundaries) {
  std::string xml = "<r>";
  for (int i = 0; i < 40; ++i) {
    const std::string n = std::to_string(i);
    xml += "<s a=\"" + n + "\"><t>text " + n + "</t>" +
           (i % 3 == 0 ? "<u/>" : "") + "<v><w>" + n + "</w></v></s>";
  }
  xml += "</r>";
  auto store = StoreWith(MustFragment(xml), /*max_range_bytes=*/48);
  ASSERT_GT(store->range_manager().range_count(), 10u);
  for (const char* expr :
       {"//s/*", "//s/@*", "//s[u]/v//text()"}) {
    ExpectWarm(store.get(), expr, "stream-scan");
  }
  // Attribute and element values compared across range boundaries, too.
  for (const char* expr :
       {"//s/@a", "/r/*/v/w", "/r/s/*/w", "//s[u]", "/r/s[2]",
        "//s[@a='7']/t", "//s[v/w][3]", "//s/t/text()", "//s[t='text 7']/v",
        "//s/v/w/text()", "//s[v='7']", "//s[t='text 17']"}) {
    ExpectWarm(store.get(), expr, "structural-join");
  }
}

TEST(XPathStreamTest, DeadSubtreeSpanningWholeRanges) {
  // <skip> spans many ranges, all dead for these queries: whole ranges
  // pass on their depth profile, their tokens unread.
  std::string xml = "<r><head>h</head><skip>";
  for (int i = 0; i < 60; ++i) xml += "<x><y>filler</y></x>";
  xml += "</skip><keep k=\"1\">v</keep></r>";
  auto store = StoreWith(MustFragment(xml), /*max_range_bytes=*/64);
  ASSERT_GT(store->range_manager().range_count(), 10u);
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  for (const char* expr : {"/r/keep/text()", "/r/keep/@k", "/r/*[2]",
                           "/r/keep[@k='1']"}) {
    ExpectAgreement(store.get(), expr);
    ASSERT_OK_AND_ASSIGN(XPathPath path, ParseXPath(expr));
    obs::RequestContext rc;
    {
      obs::ScopedRequestContext scoped(&rc);
      ASSERT_OK_AND_ASSIGN(auto forced,
                           EvaluateXPathStreaming(*store, path,
                                                  /*allow_structural_index=*/
                                                  false));
      EXPECT_EQ(forced.size(), 1u) << expr;
    }
#if !defined(LAXML_TRACING_DISABLED)
    EXPECT_LT(rc.counters.tokens_scanned, all.size() / 2) << expr;
#endif
  }
  ExpectWarm(store.get(), "/r/keep/text()", "structural-join");
  ExpectWarm(store.get(), "//skip/x[1]/y", "structural-join");
}

TEST(XPathStreamTest, AttributesAfterChildren) {
  // InsertIntoFirst splices before the element's attribute tokens, so
  // the attributes follow a child: //e/@* and //e/@k must still see
  // them past the child subtree.
  auto store = StoreWith(MustFragment(
      "<r><e k=\"1\" j=\"2\"><f/></e><e k=\"3\"/></r>"));
  ASSERT_OK_AND_ASSIGN(auto es, EvaluateXPathStreaming(*store, "//e"));
  ASSERT_EQ(es.size(), 2u);
  for (NodeId e : es) {
    ASSERT_LAXML_OK(
        store->InsertIntoFirst(e, MustFragment("<g><h>x</h></g>")).status());
  }
  ASSERT_OK_AND_ASSIGN(TokenSequence tokens, store->Read());
  // The splice really put a child before the attributes.
  size_t first_g = 0, first_attr = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (first_g == 0 && tokens[i].name == "g") first_g = i;
    if (first_attr == 0 && tokens[i].type == TokenType::kBeginAttribute) {
      first_attr = i;
    }
  }
  ASSERT_LT(first_g, first_attr);
  ExpectWarm(store.get(), "//e/@*", "stream-scan");
  // The attribute's interval still nests one level inside its element.
  for (const char* expr : {"//e/@k", "//e[@k='3']/g", "//e[@j]",
                           "//e/g/h/text()", "//r[e='x']"}) {
    ExpectWarm(store.get(), expr, "structural-join");
  }
}

/// Runs `expr` warm, checking it against the oracle and that the join
/// answered it.
void ExpectWarmJoin(Store* store, const char* expr) {
  XPathOracle oracle(store);
  ASSERT_OK_AND_ASSIGN(auto expected, oracle.Evaluate(expr));
  obs::RequestContext rc;
  {
    obs::ScopedRequestContext scoped(&rc);
    ASSERT_OK_AND_ASSIGN(auto got, EvaluateXPathStreaming(*store, expr));
    EXPECT_EQ(got, expected) << expr;
  }
#if !defined(LAXML_TRACING_DISABLED)
  ASSERT_NE(rc.plan, nullptr) << expr;
  EXPECT_STREQ(rc.plan, "structural-join") << expr;
#endif
}

TEST(XPathStreamTest, ForgedHashedKeyIsConfirmedOnTheToken) {
  // Values longer than 7 bytes key by hash. A key forged equal to the
  // literal's, on the entry whose value differs, must not make it
  // match: an equal hash is confirmed on the value's own token.
  auto store = StoreWith(MustFragment(
      "<r><b k=\"longvalue-one\"><a>longvalue-one</a></b>"
      "<b k=\"longvalue-two\"><a>longvalue-two</a></b></r>"));
  const char* exprs[] = {"//b[a='longvalue-one']",
                         "//b[@k='longvalue-one']"};
  for (const char* expr : exprs) {
    ExpectWarm(store.get(), expr, "structural-join");
  }
  const uint64_t forged = StructuralValueKey("longvalue-one");
  ASSERT_FALSE(ExactValueKey(forged));
  StructuralIndex* index = store->structural_index();
  for (const char* tag : {"a", "@k"}) {
    StructuralIndex::EntryList list = index->LookupTag(tag);
    ASSERT_NE(list, nullptr) << tag;
    ASSERT_EQ(list->size(), 2u) << tag;
    std::vector<StructuralEntry> entries = *list;
    EXPECT_EQ(entries[0].value_key, forged) << tag;
    ASSERT_NE(entries[1].value_key, forged) << tag;
    entries[1].value_key = forged;
    index->Publish(tag, std::move(entries));
  }
  for (const char* expr : exprs) {
    ExpectWarmJoin(store.get(), expr);
    ASSERT_OK_AND_ASSIGN(auto got, EvaluateXPathStreaming(*store, expr));
    EXPECT_EQ(got.size(), 1u) << expr;
  }
}

TEST(XPathStreamTest, ReplaceContentSeenByNextWarmQuery) {
  // A new text of the same token count keeps every pre and post, but
  // the value and the text node's id change: the next warm query must
  // see both. (The new text's id no longer follows its element's, so
  // the element keys as mixed and is walked.)
  auto store = StoreWith(
      MustFragment("<r><b><a>old</a></b><b><a>other</a></b></r>"));
  const char* exprs[] = {"//b[a='old']", "//b[a='new']", "//a/text()"};
  for (const char* expr : exprs) {
    ExpectWarm(store.get(), expr, "structural-join");
  }
  const std::vector<StructuralEntry> before =
      *store->structural_index()->LookupTag("a");
  ASSERT_LAXML_OK(
      store->ReplaceContent(before[0].id, {Token::Text("new")}).status());
  for (const char* expr : exprs) {
    ExpectAgreement(store.get(), expr);  // re-warms what the write dropped
    ExpectWarmJoin(store.get(), expr);
  }
  const std::vector<StructuralEntry> after =
      *store->structural_index()->LookupTag("a");
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].pre, before[i].pre);
    EXPECT_EQ(after[i].post, before[i].post);
  }
  EXPECT_TRUE(after[0].mixed());
  EXPECT_TRUE(after[1].text_leaf());
  EXPECT_LAXML_OK(store->CheckIntegrity());  // the auditor agrees
  ASSERT_OK_AND_ASSIGN(auto old_hits,
                       EvaluateXPathStreaming(*store, "//b[a='old']"));
  EXPECT_TRUE(old_hits.empty());
  ASSERT_OK_AND_ASSIGN(auto new_hits,
                       EvaluateXPathStreaming(*store, "//b[a='new']"));
  EXPECT_EQ(new_hits.size(), 1u);
}

TEST(XPathStreamTest, MixedContentMatchesForcedScan) {
  // Elements the value key calls mixed — a child element between texts,
  // a comment after a text, a text spliced before an attribute — are
  // walked; simple ones are answered from their keys.
  auto store = StoreWith(MustFragment(
      "<r><a>x<b/>y</a><a>x<!--c--></a><a k=\"1\"/><a>xy</a><a/>"
      "<a>x<b>y</b></a></r>"));
  ASSERT_OK_AND_ASSIGN(auto spliced,
                       EvaluateXPathStreaming(*store, "//a[@k='1']"));
  ASSERT_EQ(spliced.size(), 1u);
  ASSERT_LAXML_OK(
      store->InsertIntoFirst(spliced[0], {Token::Text("t")}).status());
  const char* exprs[] = {"//a/text()",  "//r[a='xy']", "//r[a='x']",
                         "//r[a='t']",  "//r[a='']",   "//a/b/text()",
                         "//r[a='y']",  "//r[a/b='']"};
  for (const char* expr : exprs) {
    ExpectWarm(store.get(), expr, "structural-join");
  }
  // The keys say what the shapes are.
  const std::vector<StructuralEntry> as =
      *store->structural_index()->LookupTag("a");
  ASSERT_EQ(as.size(), 6u);
  EXPECT_TRUE(as[0].mixed());  // x<b/>y
  EXPECT_TRUE(as[1].mixed());  // x<!--c-->
  EXPECT_TRUE(as[2].mixed());  // t before k="1"
  EXPECT_TRUE(as[3].text_leaf());
  EXPECT_EQ(as[3].value_key, StructuralValueKey("xy"));
  EXPECT_FALSE(as[4].mixed());
  EXPECT_FALSE(as[4].text_leaf());  // empty
  EXPECT_TRUE(as[5].mixed());
}

/// Runs `expr` cold then warm (ExpectWarm), and checks the warm plan is
/// the path summary's, merging `k` label-path partitions.
void ExpectSummary(Store* store, const char* expr, size_t k) {
  ExpectWarm(store, expr, "structural-join");
  ASSERT_OK_AND_ASSIGN(XPathPath path, ParseXPath(expr));
  ASSERT_OK_AND_ASSIGN(XPathAccessPlan plan, PlanXPath(*store, path));
  ASSERT_TRUE(plan.entries.has_value()) << expr;
  EXPECT_EQ(plan.summary_paths, k) << expr;
}

TEST(XPathStreamTest, PathSummaryOnRecursiveLabels) {
  // <b> sits on /a/a/b and /a/b: a descendant step may match either <a>,
  // a child chain only its own depth.
  auto store = StoreWith(MustFragment("<a><a><b/></a><b/></a>"));
  ExpectSummary(store.get(), "//a//b", 2);
  ExpectSummary(store.get(), "/a/a/b", 1);
  ExpectSummary(store.get(), "//a/b", 2);
  ExpectSummary(store.get(), "/a/b", 1);
  ExpectSummary(store.get(), "//a/a/b", 1);
  ExpectSummary(store.get(), "//a", 2);
  StructuralIndex::TagPostings bs =
      store->structural_index()->LookupPostings("b");
  ASSERT_NE(bs.list, nullptr);
  ASSERT_EQ(bs.partitions->size(), 2u);
  EXPECT_EQ((*bs.partitions)[0].path->ToString(), "/a/a/b");
  EXPECT_EQ((*bs.partitions)[1].path->ToString(), "/a/b");
  EXPECT_LAXML_OK(store->CheckIntegrity());
}

TEST(XPathStreamTest, PathSummaryPositionAfterWildcard) {
  // [1] counts per parent over the merged partitions: every <b> child of
  // a context shares its label path, so each context's candidates are
  // all there.
  auto store = StoreWith(MustFragment(
      "<r><x><b/><b/></x><y><b/></y><z><c><b/><b/></c></z><x><b/></x></r>"));
  ExpectSummary(store.get(), "/r/*/b[1]", 2);
  ExpectSummary(store.get(), "/r/*/b[2]", 2);
  ExpectSummary(store.get(), "/r/*/*/b[1]", 1);
  ExpectSummary(store.get(), "//x/b[1]", 1);
  ExpectSummary(store.get(), "/r/x[1]/b", 0);  // [n] before the end: joins
  ASSERT_OK_AND_ASSIGN(auto firsts,
                       EvaluateXPathStreaming(*store, "/r/*/b[1]"));
  EXPECT_EQ(firsts.size(), 3u);  // two <x>s and the <y>
}

TEST(XPathStreamTest, PathSummaryOverInlineAndSymbolNames) {
  // A store loaded under a capped dictionary (every name inline), then
  // reopened uncapped and written again: <p> and <n> are inline in the
  // loaded range and symbols in the new one, and the warmer files both
  // under one label path.
  testing::TempFile file("summary_names");
  StoreOptions options;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), options));
    store->name_dictionary()->set_byte_budget(1);
    ASSERT_LAXML_OK(
        store->LoadXml("<r><p><n>1</n></p><q><n>2</n></q></r>").status());
    EXPECT_EQ(store->name_dictionary()->size(), 0u);
    ASSERT_LAXML_OK(store->Sync());
  }
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), options));
  ASSERT_OK_AND_ASSIGN(NodeId root, store->FirstTopLevelId());
  ASSERT_LAXML_OK(
      store->InsertIntoLast(root, MustFragment("<p><n>3</n></p>")).status());
  EXPECT_NE(store->name_dictionary()->Find("n"), kNoNameSymbol);
  ExpectSummary(store.get(), "/r/p/n", 1);
  ExpectSummary(store.get(), "//n", 2);
  ExpectSummary(store.get(), "/r/p/n/text()", 1);
  ASSERT_OK_AND_ASSIGN(auto ns, EvaluateXPathStreaming(*store, "/r/p/n"));
  EXPECT_EQ(ns.size(), 2u);
  StructuralIndex::TagPostings n =
      store->structural_index()->LookupPostings("n");
  ASSERT_NE(n.list, nullptr);
  EXPECT_EQ(n.partitions->size(), 2u);
  EXPECT_LAXML_OK(store->CheckIntegrity());
}

TEST(XPathStreamTest, EmptyStore) {
  StoreOptions options;
  auto store = Store::OpenInMemory(options).value();
  ASSERT_OK_AND_ASSIGN(auto hits, EvaluateXPathStreaming(*store, "//x"));
  EXPECT_TRUE(hits.empty());
  ASSERT_OK_AND_ASSIGN(auto preds,
                       EvaluateXPathStreaming(*store, "//x[y='z'][1]"));
  EXPECT_TRUE(preds.empty());
}

}  // namespace
}  // namespace laxml
