// Structural XPath index tests: the interval joins in isolation and
// against brute force on random forests, lazy warm-up (only queried
// tags memoize), warm negatives, invalidation on
// mutations / range restructuring, correctness of the
// warm join against the plain scan as oracle under random edits, and
// the integrity auditor's interval cross-check (a planted bogus
// interval must be caught, on the live store and through laxml_fsck),
// and the path summary's run merge against filtering the list.

#include "index/structural_index.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "audit/fsck.h"
#include "common/random.h"
#include "query/explain.h"
#include "query/xpath_eval.h"
#include "query/xpath_parser.h"
#include "query/xpath_stream.h"
#include "store/store.h"
#include "test_util.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::TempFile;

StructuralEntry Entry(NodeId id, uint64_t pre, uint64_t post,
                      uint32_t level, uint64_t parent_pre = kNoParent) {
  StructuralEntry e;
  e.id = id;
  e.pre = pre;
  e.post = post;
  e.parent_pre = parent_pre;
  e.level = level;
  e.range = 1;
  e.offset = 0;
  return e;
}

std::vector<NodeId> Ids(const StructuralSelection& entries) {
  std::vector<NodeId> out;
  for (const StructuralEntry* e : entries) out.push_back(e->id);
  return out;
}

// ---------------------------------------------------------------------------
// The joins, in isolation.

TEST(StructuralJoinTest, TopLevelSelectsLevelZero) {
  std::vector<StructuralEntry> c = {Entry(1, 0, 9, 0), Entry(2, 1, 4, 1),
                                    Entry(3, 10, 15, 0)};
  EXPECT_EQ(Ids(StructuralTopLevel(c)), (std::vector<NodeId>{1, 3}));
}

TEST(StructuralJoinTest, DescendantJoinStrictContainment) {
  // a(0..9) contains b(2..5); b'(10..12) is a sibling, not contained.
  std::vector<StructuralEntry> a = {Entry(1, 0, 9, 0)};
  std::vector<StructuralEntry> b = {Entry(2, 2, 5, 1), Entry(3, 10, 12, 0)};
  EXPECT_EQ(Ids(StructuralDescendantJoin(a, b)), (std::vector<NodeId>{2}));
  // Self is not its own descendant: identical interval excluded.
  EXPECT_EQ(Ids(StructuralDescendantJoin(a, a)), (std::vector<NodeId>{}));
}

TEST(StructuralJoinTest, DescendantJoinSkylineKeepsNestedFrontiersSound) {
  // Frontier a(0..20) and nested a(5..10): a candidate inside both
  // matches once, and one inside only the outer still matches.
  std::vector<StructuralEntry> a = {Entry(1, 0, 20, 0), Entry(2, 5, 10, 2)};
  std::vector<StructuralEntry> b = {Entry(3, 6, 7, 3), Entry(4, 15, 16, 1),
                                    Entry(5, 21, 22, 0)};
  EXPECT_EQ(Ids(StructuralDescendantJoin(a, b)),
            (std::vector<NodeId>{3, 4}));
}

TEST(StructuralJoinTest, ChildJoinRequiresAdjacentLevel) {
  // p(0..9, level 0) has child c1(1..2, level 1); grandchild
  // g(4..5, level 2), a child of the untracked x(3..6), is contained but
  // not a child; c2(11..12, level 1), a child of the untracked
  // q(10..13), is outside.
  std::vector<StructuralEntry> p = {Entry(1, 0, 9, 0)};
  std::vector<StructuralEntry> kids = {Entry(2, 1, 2, 1, 0),
                                       Entry(3, 4, 5, 2, 3),
                                       Entry(4, 11, 12, 1, 10)};
  EXPECT_EQ(Ids(StructuralChildJoin(p, kids)), (std::vector<NodeId>{2}));
}

TEST(StructuralJoinTest, SkippingJoinLooksPastANearerFrontierAncestor) {
  // //a/*/b over <a><a><b/></a></a>: both a's are in the frontier, and
  // the innermost containing one is b's parent, not the grandparent
  // the '*' step requires.
  std::vector<StructuralEntry> a = {Entry(1, 0, 5, 0), Entry(2, 1, 4, 1, 0)};
  std::vector<StructuralEntry> b = {Entry(3, 2, 3, 2, 1)};
  EXPECT_EQ(Ids(StructuralChildJoin(a, b, /*skip=*/1)),
            (std::vector<NodeId>{3}));
  EXPECT_EQ(Ids(StructuralChildJoin(a, b)), (std::vector<NodeId>{3}));
  // //a/*/b over <a><x><a><b/></a></x></a>: no frontier entry sits two
  // levels above b, though one sits one level and one three above.
  std::vector<StructuralEntry> a2 = {Entry(1, 0, 7, 0),
                                     Entry(3, 2, 5, 2, /*x=*/1)};
  std::vector<StructuralEntry> b2 = {Entry(4, 3, 4, 3, 2)};
  EXPECT_EQ(Ids(StructuralChildJoin(a2, b2, /*skip=*/1)),
            (std::vector<NodeId>{}));
  EXPECT_EQ(Ids(StructuralChildJoin(a2, b2, /*skip=*/2)),
            (std::vector<NodeId>{4}));
  // //a/*//b: b must sit at least two levels below some frontier a.
  EXPECT_EQ(Ids(StructuralDescendantJoin(a2, b2, /*skip=*/1)),
            (std::vector<NodeId>{4}));
  EXPECT_EQ(Ids(StructuralDescendantJoin(a2, b2, /*skip=*/3)),
            (std::vector<NodeId>{}));
}

TEST(StructuralJoinTest, AttributeJoinsAsAChild) {
  // <item category=".."><name/></item><box category=".."/>: attribute
  // scopes sit one level below their element, like children. item is
  // (0..5), box (6..9).
  std::vector<StructuralEntry> items = {Entry(1, 0, 5, 0)};
  std::vector<StructuralEntry> category = {Entry(2, 1, 2, 1, 0),
                                           Entry(5, 7, 8, 1, 6)};
  EXPECT_EQ(Ids(StructuralChildJoin(items, category)),
            (std::vector<NodeId>{2}));
}

TEST(StructuralJoinTest, SemiJoinKeepsFrontierEntriesWithAMatch) {
  // <a><a><b/></a></a>: the inner a holds a child b, the outer only a
  // grandchild.
  std::vector<StructuralEntry> a = {Entry(1, 0, 5, 0), Entry(2, 1, 4, 1, 0)};
  std::vector<StructuralEntry> b = {Entry(3, 2, 3, 2, 1)};
  EXPECT_EQ(Ids(StructuralSemiJoin(a, b, /*child=*/true)),
            (std::vector<NodeId>{2}));
  EXPECT_EQ(Ids(StructuralSemiJoin(a, b, /*child=*/true, /*skip=*/1)),
            (std::vector<NodeId>{1}));
  EXPECT_EQ(Ids(StructuralSemiJoin(a, b, /*child=*/false)),
            (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(Ids(StructuralSemiJoin(a, b, /*child=*/false, /*skip=*/1)),
            (std::vector<NodeId>{1}));
  const std::vector<StructuralEntry> none;
  EXPECT_EQ(Ids(StructuralSemiJoin(a, none, /*child=*/false)),
            (std::vector<NodeId>{}));
}

TEST(StructuralJoinTest, NthPerParentCountsWithinEachParent) {
  // <p><x/><q><x/><x/></q><x/></p>: x's of p and of q interleave in
  // document order.
  auto x = [](NodeId id, uint64_t pre, uint64_t parent_pre) {
    StructuralEntry e = Entry(id, pre, pre + 1, 1);
    e.parent_pre = parent_pre;
    return e;
  };
  std::vector<StructuralEntry> xs = {x(2, 1, 0), x(4, 4, 3), x(5, 6, 3),
                                     x(6, 9, 0)};
  EXPECT_EQ(Ids(StructuralNthPerParent(xs, 1)), (std::vector<NodeId>{2, 4}));
  EXPECT_EQ(Ids(StructuralNthPerParent(xs, 2)), (std::vector<NodeId>{5, 6}));
  EXPECT_EQ(Ids(StructuralNthPerParent(xs, 3)), (std::vector<NodeId>{}));
  // Top-level entries share the virtual root.
  std::vector<StructuralEntry> top = {Entry(1, 0, 1, 0), Entry(2, 2, 3, 0)};
  EXPECT_EQ(Ids(StructuralNthPerParent(top, 2)), (std::vector<NodeId>{2}));
}

/// A random forest of nested <a>, <b> and <x> elements
/// (<a><x><b/></x></a> and the like), numbered as a token scan numbers
/// them: lists[0] holds the a's, lists[1] the b's. x is untracked, in
/// neither list, so a candidate's parent may sit outside every
/// frontier, as most elements' do in a real posting-list join.
void RandomForest(Random* rng, std::vector<StructuralEntry> lists[2]) {
  struct Open {
    int list;  // 2: an untracked x
    size_t slot;
    uint64_t pre;
  };
  std::vector<Open> open;
  uint64_t tok = 0;
  NodeId id = 0;
  const uint64_t elements = 1 + rng->Uniform(60);
  for (uint64_t made = 0; made < elements || !open.empty();) {
    if (made < elements && (open.empty() || rng->Uniform(3) != 0)) {
      const int list = static_cast<int>(rng->Uniform(3));
      const uint64_t pre = tok++;
      ++id;
      size_t slot = 0;
      if (list < 2) {
        slot = lists[list].size();
        lists[list].push_back(
            Entry(id, pre, 0, static_cast<uint32_t>(open.size()),
                  open.empty() ? kNoParent : open.back().pre));
      }
      open.push_back({list, slot, pre});
      ++made;
    } else {
      if (open.back().list < 2) {
        lists[open.back().list][open.back().slot].post = tok;
      }
      ++tok;
      open.pop_back();
    }
  }
}

/// What the joins read in a query, over one random forest: both whole
/// posting lists, and a random half of each as a selection (a step's
/// matches after an earlier join or predicate).
struct JoinInputs {
  explicit JoinInputs(Random* rng) {
    RandomForest(rng, lists);
    for (int l = 0; l < 2; ++l) {
      for (const StructuralEntry& e : lists[l]) {
        if (rng->Uniform(2) == 0) halves[l].push_back(&e);
      }
    }
  }

  /// Calls `fn(span, entries)` on each input: the span a join reads and
  /// the same entries as pointers, for the brute force.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (int l = 0; l < 2; ++l) {
      StructuralSelection all;
      for (const StructuralEntry& e : lists[l]) all.push_back(&e);
      fn(StructuralSpan(lists[l]), all);
      fn(StructuralSpan(halves[l]), halves[l]);
    }
  }

  std::vector<StructuralEntry> lists[2];
  StructuralSelection halves[2];
};

TEST(StructuralJoinTest, MergeJoinsMatchBruteForce) {
  // Both joins against the interval definitions, over every pairing of
  // lists and selections (including a list joined with itself) and with
  // up to two '*' levels skipped. Untracked parents, gaps between
  // frontier intervals and candidates after the last one drive the
  // parent merge's backward search and both merges' skips and early
  // exits.
  Random rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    const JoinInputs inputs(&rng);
    inputs.ForEach([&](StructuralSpan frontier,
                       const StructuralSelection& fs) {
      inputs.ForEach([&](StructuralSpan candidates,
                         const StructuralSelection& cs) {
        for (uint32_t skip = 0; skip < 3; ++skip) {
          std::vector<NodeId> descendants, children;
          for (const StructuralEntry* c : cs) {
            bool below = false, child = false;
            for (const StructuralEntry* f : fs) {
              if (f->pre < c->pre && c->post < f->post) {
                below = below || f->level + skip + 1 <= c->level;
                child = child || f->level + skip + 1 == c->level;
              }
            }
            if (below) descendants.push_back(c->id);
            if (child) children.push_back(c->id);
          }
          EXPECT_EQ(Ids(StructuralDescendantJoin(frontier, candidates, skip)),
                    descendants);
          EXPECT_EQ(Ids(StructuralChildJoin(frontier, candidates, skip)),
                    children);
        }
      });
    });
  }
}

TEST(StructuralJoinTest, SemiJoinAndNthMatchBruteForce) {
  // The predicate primitives against their definitions on the same
  // inputs: a frontier entry survives the semi-join iff some candidate
  // lies strictly inside it at the required level (exactly skip + 1
  // down for a child, at least that far for a descendant); a candidate
  // survives [n] on a child step iff n - 1 candidates with its parent
  // precede it, and on a descendant step iff some frontier entry holds
  // it and n - 1 candidates before it.
  Random rng(20261018);
  for (int trial = 0; trial < 300; ++trial) {
    const JoinInputs inputs(&rng);
    inputs.ForEach([&](StructuralSpan frontier,
                       const StructuralSelection& fs) {
      inputs.ForEach([&](StructuralSpan candidates,
                         const StructuralSelection& cs) {
        for (uint32_t skip = 0; skip < 3; ++skip) {
          std::vector<NodeId> below, child;
          for (const StructuralEntry* f : fs) {
            bool has_below = false, has_child = false;
            for (const StructuralEntry* c : cs) {
              if (f->pre < c->pre && c->post < f->post) {
                has_below = has_below || f->level + skip + 1 <= c->level;
                has_child = has_child || f->level + skip + 1 == c->level;
              }
            }
            if (has_below) below.push_back(f->id);
            if (has_child) child.push_back(f->id);
          }
          EXPECT_EQ(Ids(StructuralSemiJoin(frontier, candidates,
                                           /*child=*/false, skip)),
                    below);
          EXPECT_EQ(Ids(StructuralSemiJoin(frontier, candidates,
                                           /*child=*/true, skip)),
                    child);
        }
        for (uint64_t n = 1; n <= 3; ++n) {
          std::vector<NodeId> nth;
          for (size_t i = 0; i < cs.size(); ++i) {
            bool qualifies = false;
            for (const StructuralEntry* f : fs) {
              uint64_t rank = 0;
              for (size_t j = 0; j <= i; ++j) {
                if (f->pre < cs[j]->pre && cs[j]->post < f->post) ++rank;
              }
              const bool inside = f->pre < cs[i]->pre && cs[i]->post < f->post;
              qualifies = qualifies || (inside && rank == n);
            }
            if (qualifies) nth.push_back(cs[i]->id);
          }
          EXPECT_EQ(Ids(StructuralNthDescendant(frontier, candidates, n)), nth);
        }
      });
    });
    inputs.ForEach([&](StructuralSpan candidates,
                       const StructuralSelection& cs) {
      for (uint64_t n = 1; n <= 3; ++n) {
        std::vector<NodeId> nth;
        for (size_t i = 0; i < cs.size(); ++i) {
          uint64_t rank = 1;
          for (size_t j = 0; j < i; ++j) {
            if (cs[j]->parent_pre == cs[i]->parent_pre) ++rank;
          }
          if (rank == n) nth.push_back(cs[i]->id);
        }
        EXPECT_EQ(Ids(StructuralNthPerParent(candidates, n)), nth);
      }
    });
  }
}

TEST(StructuralJoinTest, MergeRunsMatchesFilteringTheList) {
  // Random lists split into up to six parts, in runs of random length
  // (siblings share a label path), and random subsets of the parts
  // merged: the union in pre order, every entry once.
  Random rng(20261020);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<StructuralEntry> list(rng.Uniform(300));
    const size_t k = 1 + rng.Uniform(6);
    std::vector<StructuralSelection> parts(k);
    std::vector<size_t> part_of(list.size());
    size_t part = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      list[i] = Entry(i, 2 * i, 2 * i + 1, 0);
      if (rng.Uniform(4) == 0) part = rng.Uniform(k);
      part_of[i] = part;
      parts[part].push_back(&list[i]);
    }
    std::vector<const StructuralSelection*> chosen;
    std::vector<bool> in(k, false);
    for (size_t p = 0; p < k; ++p) {
      if (rng.Uniform(2) == 0) {
        chosen.push_back(&parts[p]);
        in[p] = true;
      }
    }
    StructuralSelection want;
    for (size_t i = 0; i < list.size(); ++i) {
      if (in[part_of[i]]) want.push_back(&list[i]);
    }
    EXPECT_EQ(StructuralMergeRuns(chosen), want) << "trial " << trial;
  }
}

TEST(StructuralJoinTest, EmptyInputsAndTopLevelCandidates) {
  // <a><b/></a><b/><a><b/></a>: b(4..5) is top level (kNoParent), inside
  // no frontier interval, between two that hold a child b each.
  const std::vector<StructuralEntry> a = {Entry(1, 0, 3, 0),
                                          Entry(4, 6, 9, 0)};
  const std::vector<StructuralEntry> b = {Entry(2, 1, 2, 1, 0),
                                          Entry(3, 4, 5, 0),
                                          Entry(5, 7, 8, 1, 6)};
  const std::vector<StructuralEntry> none;
  const StructuralSelection nothing;
  EXPECT_EQ(Ids(StructuralChildJoin(a, b)), (std::vector<NodeId>{2, 5}));
  EXPECT_EQ(Ids(StructuralDescendantJoin(a, b)), (std::vector<NodeId>{2, 5}));
  EXPECT_EQ(Ids(StructuralSemiJoin(a, b, /*child=*/true)),
            (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(Ids(StructuralTopLevel(b)), (std::vector<NodeId>{3}));
  // A top-level candidate has no parent to join, even among top-level
  // frontier entries.
  EXPECT_EQ(Ids(StructuralChildJoin(b, b)), (std::vector<NodeId>{}));
  EXPECT_EQ(Ids(StructuralSemiJoin(b, b, /*child=*/true)),
            (std::vector<NodeId>{}));
  for (const StructuralSpan empty : {StructuralSpan(none),
                                     StructuralSpan(nothing)}) {
    for (uint32_t skip = 0; skip < 2; ++skip) {
      EXPECT_EQ(Ids(StructuralChildJoin(empty, b, skip)),
                (std::vector<NodeId>{}));
      EXPECT_EQ(Ids(StructuralChildJoin(a, empty, skip)),
                (std::vector<NodeId>{}));
      EXPECT_EQ(Ids(StructuralDescendantJoin(empty, b, skip)),
                (std::vector<NodeId>{}));
      EXPECT_EQ(Ids(StructuralDescendantJoin(a, empty, skip)),
                (std::vector<NodeId>{}));
      for (bool child : {false, true}) {
        EXPECT_EQ(Ids(StructuralSemiJoin(empty, b, child, skip)),
                  (std::vector<NodeId>{}));
        EXPECT_EQ(Ids(StructuralSemiJoin(a, empty, child, skip)),
                  (std::vector<NodeId>{}));
      }
    }
    EXPECT_EQ(Ids(StructuralNthPerParent(empty, 1)), (std::vector<NodeId>{}));
    EXPECT_EQ(Ids(StructuralNthDescendant(empty, b, 1)),
              (std::vector<NodeId>{}));
    EXPECT_EQ(Ids(StructuralNthDescendant(a, empty, 1)),
              (std::vector<NodeId>{}));
  }
  EXPECT_EQ(Ids(StructuralTopLevel(none)), (std::vector<NodeId>{}));
}

// A join's result points into the posting lists it read, so a temporary
// list must not reach one; a temporary selection may, since no result
// points into a selection.
template <typename T>
constexpr bool kTopLevelAccepts =
    requires(T&& t) { StructuralTopLevel(std::forward<T>(t)); };
static_assert(!std::is_constructible_v<StructuralSpan,
                                       std::vector<StructuralEntry>&&>);
static_assert(std::is_constructible_v<StructuralSpan,
                                      const std::vector<StructuralEntry>&>);
static_assert(std::is_constructible_v<StructuralSpan, StructuralSelection&&>);
static_assert(!kTopLevelAccepts<std::vector<StructuralEntry>>);
static_assert(kTopLevelAccepts<const std::vector<StructuralEntry>&>);

// ---------------------------------------------------------------------------
// Warm-up and invalidation over a real store.

class StructuralIndexTest : public ::testing::Test {
 protected:
  void Open(uint32_t max_range_bytes = 0) {
    StoreOptions options;
    options.max_range_bytes = max_range_bytes;
    ASSERT_OK_AND_ASSIGN(store_, Store::OpenInMemory(options));
    ASSERT_LAXML_OK(store_
                        ->InsertTopLevel(MustFragment(
                            "<site><regions>"
                            "<item><name>a</name><qty>1</qty></item>"
                            "<item><name>b</name></item>"
                            "</regions><people>"
                            "<person><name>Ada</name></person>"
                            "</people></site>"))
                        .status());
  }

  std::vector<NodeId> Stream(const std::string& expr, bool allow = true) {
    auto path = ParseXPath(expr);
    EXPECT_TRUE(path.ok()) << path.status().ToString();
    auto result = EvaluateXPathStreaming(*store_, *path, allow);
    EXPECT_TRUE(result.ok()) << expr << ": " << result.status().ToString();
    return result.ok() ? std::move(result).value() : std::vector<NodeId>{};
  }

  std::unique_ptr<Store> store_;
};

TEST_F(StructuralIndexTest, LazyWarmupMemoizesOnlyQueriedTags) {
  Open();
  StructuralIndex* index = store_->structural_index();
  EXPECT_EQ(index->memoized_nodes(), 0u);

  std::vector<NodeId> cold = Stream("//item//name");
  EXPECT_EQ(cold.size(), 2u);
  EXPECT_EQ(index->stats().misses, 1u);
  EXPECT_EQ(index->stats().hits, 0u);
  // Exactly the two queried tags are warm: 2 items + 3 names.
  EXPECT_EQ(index->warmed_tags(), 2u);
  EXPECT_EQ(index->memoized_nodes(), 5u);
  EXPECT_LT(index->memoized_nodes(), store_->live_node_count());
  EXPECT_EQ(index->LookupTag("person"), nullptr);  // untouched: cold

  std::vector<NodeId> warm = Stream("//item//name");
  EXPECT_EQ(index->stats().hits, 1u);
  EXPECT_EQ(warm, cold);
  // And the warm join agrees with the index-bypassing scan.
  EXPECT_EQ(warm, Stream("//item//name", /*allow=*/false));

  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_F(StructuralIndexTest, ChildAxisWarmPathAgreesWithScan) {
  Open();
  for (const char* expr :
       {"/site/regions/item", "/site/regions/item/name", "//regions/item",
        "/item", "//people//name"}) {
    std::vector<NodeId> cold = Stream(expr);        // scan + warm
    std::vector<NodeId> warm = Stream(expr);        // join
    std::vector<NodeId> plain = Stream(expr, false);
    EXPECT_EQ(cold, plain) << expr;
    EXPECT_EQ(warm, plain) << expr;
  }
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_F(StructuralIndexTest, AbsentTagIsAWarmNegative) {
  Open();
  EXPECT_TRUE(Stream("//nosuch").empty());
  EXPECT_EQ(store_->structural_index()->stats().misses, 1u);
  ASSERT_NE(store_->structural_index()->LookupTag("nosuch"), nullptr);
  EXPECT_TRUE(Stream("//nosuch").empty());
  EXPECT_EQ(store_->structural_index()->stats().hits, 1u);
}

TEST_F(StructuralIndexTest, ForcedScanNeverMemoizes) {
  Open();
  EXPECT_EQ(Stream("//item//name", /*allow=*/false).size(), 2u);
  EXPECT_EQ(Stream("//item//name", /*allow=*/false).size(), 2u);
  StructuralIndex* index = store_->structural_index();
  EXPECT_EQ(index->memoized_nodes(), 0u);
  EXPECT_EQ(index->stats().hits, 0u);
  EXPECT_EQ(index->stats().misses, 0u);
}

TEST_F(StructuralIndexTest, MutationInvalidatesEverything) {
  Open();
  StructuralIndex* index = store_->structural_index();
  Stream("//item");
  ASSERT_GT(index->memoized_nodes(), 0u);

  ASSERT_OK_AND_ASSIGN(NodeId site, store_->FirstTopLevelId());
  ASSERT_LAXML_OK(
      store_->InsertIntoLast(site, MustFragment("<item><name>c</name></item>"))
          .status());
  // Inserting tokens renumbers pre/post downstream: everything dropped.
  EXPECT_EQ(index->memoized_nodes(), 0u);
  EXPECT_GT(index->stats().invalidations, 0u);

  EXPECT_EQ(Stream("//item").size(), 3u);         // cold re-warm
  EXPECT_EQ(Stream("//item").size(), 3u);         // warm join
  EXPECT_EQ(Stream("//item", false).size(), 3u);  // plain scan agrees
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_F(StructuralIndexTest, RangeSplittingMutationStaysCorrect) {
  // Tiny ranges: the document spans many ranges and the insert below
  // splits one at each boundary (the SplitRange seam fires alongside
  // the mass invalidation).
  Open(/*max_range_bytes=*/64);
  ASSERT_GT(store_->range_manager().range_count(), 1u);
  Stream("//item//name");

  std::vector<NodeId> items = Stream("//item");
  ASSERT_EQ(items.size(), 2u);
  ASSERT_LAXML_OK(
      store_->InsertBefore(items[1], MustFragment("<item><name>mid</name></item>"))
          .status());
  EXPECT_EQ(store_->structural_index()->memoized_nodes(), 0u);

  EXPECT_EQ(Stream("//item//name"), Stream("//item//name", false));
  EXPECT_EQ(Stream("//item").size(), 3u);
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_F(StructuralIndexTest, CompactRangesDropsTouchedTagLists) {
  Open(/*max_range_bytes=*/64);
  Stream("//item//name");
  ASSERT_GT(store_->structural_index()->memoized_nodes(), 0u);

  ASSERT_OK_AND_ASSIGN(uint64_t merges, store_->CompactRanges(1 << 20));
  ASSERT_GT(merges, 0u);
  // Merged ranges hosted begin tokens of both tags: their lists are
  // gone (numbering survives a merge, coordinates do not).
  EXPECT_EQ(store_->structural_index()->memoized_nodes(), 0u);

  EXPECT_EQ(Stream("//item//name"), Stream("//item//name", false));
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_F(StructuralIndexTest, RandomizedMutateThenQueryAgreesWithScan) {
  Open(/*max_range_bytes=*/128);
  Random rng(20260808);
  const char* kTags[] = {"item", "name", "qty", "person", "extra"};
  for (int round = 0; round < 40; ++round) {
    // Mutate: insert a small fragment at a random live element, or
    // delete a random element found via a query.
    std::vector<NodeId> targets = Stream("//item", false);
    if (!targets.empty() && rng.Uniform(4) == 0) {
      ASSERT_LAXML_OK(store_->DeleteNode(
          targets[rng.Uniform(static_cast<uint32_t>(targets.size()))]));
    } else {
      ASSERT_OK_AND_ASSIGN(NodeId site, store_->FirstTopLevelId());
      const char* tag = kTags[rng.Uniform(5)];
      ASSERT_LAXML_OK(store_
                          ->InsertIntoLast(site, MustFragment(
                                                     std::string("<item><") +
                                                     tag + ">x</" + tag +
                                                     "></item>"))
                          .status());
    }
    // Query: random tag pair, both axes; cold then warm must equal the
    // plain scan.
    const std::string a = kTags[rng.Uniform(5)];
    const std::string b = kTags[rng.Uniform(5)];
    const std::string exprs[] = {"//" + a, "//" + a + "//" + b,
                                 "/site//" + a, "//" + a + "/" + b};
    for (const std::string& expr : exprs) {
      std::vector<NodeId> plain = Stream(expr, false);
      EXPECT_EQ(Stream(expr), plain) << expr;  // cold (or partly warm)
      EXPECT_EQ(Stream(expr), plain) << expr;  // warm
    }
  }
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_F(StructuralIndexTest, EvaluatorRoutesIndexablePathsThroughIndex) {
  Open();
  XPathEvaluator eval(store_.get());
  ASSERT_OK_AND_ASSIGN(std::vector<NodeId> via_eval,
                       eval.Evaluate("//item//name"));
  EXPECT_EQ(via_eval, Stream("//item//name", false));
  EXPECT_GT(store_->structural_index()->memoized_nodes(), 0u);
  // [n] is a semi-join over the warm <item> list: the first item child
  // of each parent.
  ASSERT_OK_AND_ASSIGN(std::vector<NodeId> first,
                       eval.Evaluate("//item[1]"));
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(first, Stream("//item[1]", false));
}

TEST_F(StructuralIndexTest, EligibilityGate) {
  Open();
  auto explain = [&](const std::string& expr) {
    auto plan = ExplainXPath(*store_, expr);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *std::move(plan) : XPathPlan{};
  };
  auto eligible = [&](const std::string& expr) {
    return explain(expr).eligible;
  };
  EXPECT_TRUE(eligible("//a//b"));
  EXPECT_TRUE(eligible("/a/b/c"));
  EXPECT_TRUE(eligible("/a/*/*/b"));
  EXPECT_TRUE(eligible("/a/*//b"));
  EXPECT_TRUE(eligible("//a/@id"));
  EXPECT_TRUE(eligible("//a/*/@id"));
  EXPECT_FALSE(eligible("//a/*"));
  EXPECT_FALSE(eligible("/*/a"));
  EXPECT_FALSE(eligible("//a//*/b"));
  // A final text() child step after a named step; no other text().
  EXPECT_TRUE(eligible("//a/text()"));
  EXPECT_TRUE(eligible("/a/b[c='x']/text()"));
  EXPECT_FALSE(eligible("//a//text()"));
  EXPECT_FALSE(eligible("/a/*/text()"));
  EXPECT_FALSE(eligible("//text()"));
  EXPECT_FALSE(eligible("//a/@*"));
  EXPECT_FALSE(eligible("//a//@id"));
  // Predicates the join answers as semi-joins.
  EXPECT_TRUE(eligible("//a[1]"));
  EXPECT_TRUE(eligible("//a[b]"));
  EXPECT_TRUE(eligible("//a[b/c][@id][2]/d"));
  EXPECT_TRUE(eligible("//a[b//c]"));
  EXPECT_TRUE(eligible("//a[*/c]"));
  EXPECT_TRUE(eligible("//a[@id='x']"));
  EXPECT_TRUE(eligible("//a[b/@id='x']"));
  EXPECT_TRUE(eligible("//a[b='x']"));
  EXPECT_TRUE(eligible("//a[b/*/c='x']"));
  // ... and those it does not, with the reason EXPLAIN shows.
  auto reason = [&](const std::string& expr) { return explain(expr).gate; };
  EXPECT_EQ(reason("//a[b/text()='x']"), "predicate path not indexable");
  EXPECT_EQ(reason("//a[b[c]]"), "nested predicate");
  EXPECT_EQ(reason("//a[b/text()]"), "predicate path not indexable");
  EXPECT_EQ(reason("//a[*]"), "predicate path not indexable");
  EXPECT_EQ(reason("//a[@*]"), "predicate path not indexable");
  EXPECT_EQ(reason("//a/*[1]/b"), "has predicates");
  EXPECT_EQ(reason("//a/@b[1]"), "has predicates");
}

TEST_F(StructuralIndexTest, PlanJoinsWholePathOrNothing) {
  Open();
  // The plan's lists are independent of warmth: these tags are cold.
  auto plan = [&](const std::string& expr) {
    auto p = ParseXPath(expr);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    if (!p.ok()) return XPathAccessPlan{};
    auto planned = PlanXPath(*store_, *p);
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    return planned.ok() ? *std::move(planned) : XPathAccessPlan{};
  };
  // Joined whole, one list per step and per predicate-path step: '*'
  // between named steps, a final '@name' or text(), the predicates a
  // semi-join answers.
  EXPECT_EQ(plan("/a/*/b").lists.size(), 3u);
  EXPECT_EQ(plan("/a/*/*//b").lists.size(), 4u);
  EXPECT_EQ(plan("//item/@category").lists.size(), 2u);
  EXPECT_EQ(plan("/a/*/b[c]/d").lists.size(), 5u);
  EXPECT_EQ(plan("/a/*/b[2]/d").lists.size(), 4u);
  XPathAccessPlan text = plan("/a/b[c='x']/text()");
  EXPECT_EQ(text.lists.size(), 4u);
  EXPECT_EQ(text.lists[3], nullptr);  // text() has no list of its own
  // Cold, none of them has entries yet: each scans and warms.
  EXPECT_FALSE(text.entries.has_value());
  EXPECT_STREQ(text.label(), "stream-scan");
  // Anything the gate refuses looks up no list at all, however long its
  // joinable head: a trailing '*', '@*', '//@a', '*[n]', an attribute
  // step before the last step, text() after '*', a predicate the join
  // cannot answer.
  for (const char* expr :
       {"/a/b/*", "/a/*/*", "/a/b/@*", "/a/b//@c", "/a/b/*[1]", "/a/*/*[1]",
        "/a/*/text()", "/a/@c/b", "/a/*/b[c/text()='x']/d",
        "/a/b[c/text()='x'][1]/d", "/a/b//text()"}) {
    XPathAccessPlan refused = plan(expr);
    EXPECT_TRUE(refused.lists.empty()) << expr;
    EXPECT_STREQ(refused.label(), "stream-scan") << expr;
  }
}

TEST_F(StructuralIndexTest, PlanOutlivesTheIndex) {
  // A joined plan's selections point into the lists it looked up, which
  // the plan holds: after the index drops every list and a scan
  // republishes the tags, the old plan still runs to the ids it
  // planned.
  Open();
  for (const char* expr : {"/site/people/person/name", "//item[qty]/name",
                           "//item[name='b']", "//item/name/text()"}) {
    SCOPED_TRACE(expr);
    ASSERT_OK_AND_ASSIGN(XPathPath path, ParseXPath(expr));
    const std::vector<NodeId> want = Stream(expr, false);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(Stream(expr), want);  // warms the path's tags
    ASSERT_OK_AND_ASSIGN(XPathAccessPlan plan, PlanXPath(*store_, path));
    ASSERT_TRUE(plan.entries.has_value());
    store_->structural_index()->InvalidateAll();
    EXPECT_EQ(Stream(expr), want);  // cold: the scan republishes
    for (const StructuralIndex::EntryList& list : plan.lists) {
      if (list != nullptr) {
        EXPECT_EQ(list.use_count(), 1);  // held by the plan alone
      }
    }
    ASSERT_OK_AND_ASSIGN(std::vector<NodeId> ids,
                         RunXPathPlan(*store_, path, plan));
    EXPECT_EQ(ids, want);
  }
}

TEST(StructuralShapesTest, WildcardAndAttributeJoinsAgreeWithScan) {
  const char* docs[] = {
      "<a><a><b/></a></a>",
      "<a><x><a><b/></a></x></a>",
      "<a><x><b k='1'/><a><y><b k='2'/></y></a></x><b k='3'/></a>",
  };
  const char* exprs[] = {"/a/*/b", "//a/*/b",   "/a/*//b", "//a/*/*/b",
                         "//b/@k", "//a/*/@k", "/a/b/@k", "//x/a/*/b/@k"};
  for (const char* doc : docs) {
    ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(StoreOptions{}));
    ASSERT_LAXML_OK(store->LoadXml(doc).status());
    for (const char* expr : exprs) {
      ASSERT_OK_AND_ASSIGN(XPathPath path, ParseXPath(expr));
      ASSERT_OK_AND_ASSIGN(std::vector<NodeId> plain,
                           EvaluateXPathStreaming(*store, path, false));
      const uint64_t hits = store->structural_index()->stats().hits;
      ASSERT_OK_AND_ASSIGN(std::vector<NodeId> cold,
                           EvaluateXPathStreaming(*store, path));
      ASSERT_OK_AND_ASSIGN(std::vector<NodeId> warm,
                           EvaluateXPathStreaming(*store, path));
      EXPECT_EQ(cold, plain) << expr << " over " << doc;
      EXPECT_EQ(warm, plain) << expr << " over " << doc;
      // The second run joined.
      EXPECT_GT(store->structural_index()->stats().hits, hits) << expr;
    }
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }
}

TEST(StructuralShapesTest, PredicateSemiJoinsAgreeWithScan) {
  // Nested same-name elements are where a semi-join that checks the
  // wrong level, or [n] that counts under the wrong parent, goes wrong.
  const char* docs[] = {
      "<a><a><b/></a></a>",
      "<a><b/><a><b/><b k='2'/></a><b k='1'/></a>",
      "<a k='1'><x><a k='2'><b/></a></x><a><c><b k='1'/></c></a><b/></a>",
      "<r><a><b/><b/></a><a/><a><c/><b k='3'/></a></r>",
  };
  const char* exprs[] = {
      "//a[b]",       "//a[b]/b",       "/a[a]",           "//a[a//b]",
      "//a[c/b]",     "//a[c//b]",      "//a[*/b]",        "//a[a/b]/b",
      "//a[@k]",      "//a[b/@k]",      "//a[@k='1']",     "//a[@k='2']/b",
      "//b[@k='1']",  "//a[b/@k='1']",  "//a[*/@k='2']",   "//a[*//@k='1']",
      "//b[1]",       "//b[2]",         "//a/b[1]",        "//a/b[2]",
      "//a[1]",       "//a[2]//b",      "/a/*/b[1]",       "//a[b][2]",
      "//a[2][b]",    "//a[b][1]/b[2]", "//*/a[1]",        "//a/*/b[1]/@k",
  };
  for (const char* doc : docs) {
    ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(StoreOptions{}));
    ASSERT_LAXML_OK(store->LoadXml(doc).status());
    for (const char* expr : exprs) {
      ASSERT_OK_AND_ASSIGN(XPathPath path, ParseXPath(expr));
      ASSERT_OK_AND_ASSIGN(std::vector<NodeId> plain,
                           EvaluateXPathStreaming(*store, path, false));
      ASSERT_OK_AND_ASSIGN(std::vector<NodeId> cold,
                           EvaluateXPathStreaming(*store, path));
      const uint64_t hits = store->structural_index()->stats().hits;
      ASSERT_OK_AND_ASSIGN(std::vector<NodeId> warm,
                           EvaluateXPathStreaming(*store, path));
      EXPECT_EQ(cold, plain) << expr << " over " << doc;
      EXPECT_EQ(warm, plain) << expr << " over " << doc;
      // The warm run joined exactly when the gate accepts the path.
      const uint64_t joins =
          StructuralIneligibilityReason(path) == nullptr ? 1 : 0;
      EXPECT_EQ(store->structural_index()->stats().hits, hits + joins)
          << expr;
    }
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }
}

TEST_F(StructuralIndexTest, AttributeStepWarmsItsOwnKey) {
  Open();
  ASSERT_OK_AND_ASSIGN(NodeId site, store_->FirstTopLevelId());
  ASSERT_LAXML_OK(store_
                      ->InsertIntoLast(site, MustFragment(
                                                 "<box name='n'>x</box>"))
                      .status());
  StructuralIndex* index = store_->structural_index();
  EXPECT_EQ(Stream("//box/@name").size(), 1u);
  // The attribute list is keyed apart from the <name> elements.
  ASSERT_NE(index->LookupTag("@name"), nullptr);
  EXPECT_EQ(index->LookupTag("@name")->size(), 1u);
  EXPECT_EQ(index->LookupTag("name"), nullptr);
  EXPECT_EQ(Stream("//box/@name"), Stream("//box/@name", false));
  EXPECT_EQ(index->stats().hits, 1u);
  EXPECT_TRUE(Stream("//item/@name").empty());  // cold "item"
  EXPECT_TRUE(Stream("//item/@name").empty());  // warm join
  EXPECT_EQ(index->stats().hits, 2u);
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST_F(StructuralIndexTest, AuditorCatchesBogusInterval) {
  Open();
  Stream("//item");
  ASSERT_LAXML_OK(store_->CheckIntegrity());

  // Plant a corrupted posting list: shift one interval's post.
  StructuralIndex* index = store_->structural_index();
  auto list = index->LookupTag("item");
  ASSERT_NE(list, nullptr);
  std::vector<StructuralEntry> bogus = *list;
  ASSERT_FALSE(bogus.empty());
  bogus[0].post += 1;
  index->Publish("item", bogus);
  Status audit = store_->CheckIntegrity();
  EXPECT_FALSE(audit.ok());
  EXPECT_NE(audit.ToString().find("structural-index"), std::string::npos)
      << audit.ToString();

  // Dropping the poisoned memo heals the store (nothing persistent was
  // ever wrong).
  index->InvalidateAll();
  ASSERT_LAXML_OK(store_->CheckIntegrity());
}

TEST(StructuralIndexFsckTest, FsckWarmsAndValidatesIntervals) {
  TempFile file("structural_fsck");
  {
    StoreOptions options;
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(file.path(), options));
    ASSERT_LAXML_OK(store
                        ->InsertTopLevel(MustFragment(
                            "<a><b><c>x</c></b><b>y</b></a>"))
                        .status());
  }
  FsckOutcome out = RunFsck(file.path(), {});
  EXPECT_EQ(out.exit_code, 0) << out.report.ToString();
  // The fsck run warmed the index and the structural leg walked it.
  EXPECT_GT(out.report.structural_entries, 0u) << out.report.ToString();
}

}  // namespace
}  // namespace laxml
