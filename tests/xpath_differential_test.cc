// Differential XPath test: seeded random queries over the whole AST —
// child/descendant/attribute axes × name/*/text()/node()/comment() ×
// [n], [path] and [path='lit'], nested — evaluated by the engine
// (XPathEvaluator, so the planner's structural-join and stream-scan
// plans both run) and by the reference oracle (tests/xpath_oracle.h),
// on generated documents under random mutation schedules, with a full
// name dictionary (symbol-coded names) and a capped one (every name
// stored inline), and as a forced scan (allow_structural_index =
// false). Every warm run must take the plan the structural-index gate
// promises: a join exactly when the gate accepts the path. One
// evaluator serves every round of a store: no call refreshes anything,
// so this also pins freshness. Warm queries the path summary answers
// are counted by shape, so each shape is checked against the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "obs/request_context.h"
#include "query/xpath_eval.h"
#include "query/xpath_parser.h"
#include "query/xpath_stream.h"
#include "store/store.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "workload/op_stream.h"
#include "xpath_oracle.h"

namespace laxml {
namespace {

using testing::XPathOracle;

/// The store's nodes as a tree, so generated queries can follow real
/// paths and predicates can name real descendants and values.
class DocTree {
 public:
  explicit DocTree(const TokenSequence& tokens) {
    std::vector<int> open;
    std::set<std::string> elements, attributes;
    for (const Token& t : tokens) {
      if (t.ClosesScope()) {
        open.pop_back();
        continue;
      }
      const int index = static_cast<int>(nodes_.size());
      const int parent = open.empty() ? -1 : open.back();
      nodes_.push_back(Node{t.type, t.name, t.value, parent, {}});
      if (parent >= 0) nodes_[parent].children.push_back(index);
      if (t.OpensScope()) open.push_back(index);
      if (t.type == TokenType::kBeginElement) elements.insert(t.name);
      if (t.type == TokenType::kBeginAttribute) attributes.insert(t.name);
    }
    elements_.assign(elements.begin(), elements.end());
    attributes_.assign(attributes.begin(), attributes.end());
  }

  struct Node {
    TokenType type;
    std::string name;
    std::string value;
    int parent;
    std::vector<int> children;
  };

  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  const std::vector<std::string>& elements() const { return elements_; }
  const std::vector<std::string>& attributes() const { return attributes_; }

  /// XPath string value of node `i`.
  std::string StringValue(int i) const {
    const Node& n = node(i);
    if (n.type != TokenType::kBeginElement) return n.value;
    std::string out;
    for (int child : n.children) {
      if (node(child).type == TokenType::kText) {
        out += node(child).value;
      } else if (node(child).type == TokenType::kBeginElement) {
        out += StringValue(child);
      }
    }
    return out;
  }

 private:
  std::vector<Node> nodes_;
  std::vector<std::string> elements_;
  std::vector<std::string> attributes_;
};

/// Seeded queries over the whole AST. Most follow a real node's
/// ancestor chain with predicates naming its real descendants and
/// values, so they select something; the rest are blind, to reach the
/// shapes real paths never take.
class QueryGenerator {
 public:
  QueryGenerator(Random* rng, const DocTree* tree) : rng_(rng), tree_(tree) {}

  std::string Query() {
    const uint64_t r = tree_->nodes().empty() ? 0 : rng_->Uniform(10);
    if (r < 3) return BlindPath(/*top_level=*/true, 0);
    if (r == 3) return GateEdgeShape();
    const int target =
        static_cast<int>(rng_->Uniform(tree_->nodes().size()));
    return ChainPath(-1, target, 0);
  }

 private:
  /// A named step on a real element, then a step or predicate on one of
  /// its child elements and attributes at the edge of the
  /// structural-index gate: shapes it refuses, which scan however warm
  /// the named step is — a wildcard, kind test or attribute step, a
  /// predicate over text(), or a value predicate and a node() step —
  /// and shapes it joins: onto text(), or with predicates that are
  /// semi-joins ([u], [1], [@a='v'], [u='v']).
  std::string GateEdgeShape() {
    int e = static_cast<int>(rng_->Uniform(tree_->nodes().size()));
    while (e >= 0 && tree_->node(e).type != TokenType::kBeginElement) {
      e = tree_->node(e).parent;
    }
    if (e < 0) return BlindPath(/*top_level=*/true, 0);
    int child = -1, attribute = -1;
    for (int c : tree_->node(e).children) {
      if (tree_->node(c).type == TokenType::kBeginElement &&
          (child < 0 || rng_->Uniform(2) == 0)) {
        child = c;
      }
      if (tree_->node(c).type == TokenType::kBeginAttribute &&
          (attribute < 0 || rng_->Uniform(2) == 0)) {
        attribute = c;
      }
    }
    const std::string t = "//" + tree_->node(e).name;
    const std::string u = child < 0 ? tree_->node(e).name
                                    : tree_->node(child).name;
    switch (rng_->Uniform(10)) {
      case 0:
        return t + "/*";
      case 1:
        return t + "/@*";
      case 2:
        return t + "[" + u + "]";
      case 3:
        return t + "/" + u + "/text()";
      case 4:
        return t + "//text()";
      case 5:
        return t + "/" + u + "[1]";
      case 6:
        if (attribute < 0) return t + "[" + u + "]";
        return t + "[@" + tree_->node(attribute).name + "=" +
               Quote(rng_->Uniform(4) == 0 ? rng_->NextText(3)
                                           : tree_->node(attribute).value) +
               "]";
      case 7:
        return t + "[" + u + "=" +
               Quote(child < 0 ? rng_->NextText(3)
                               : tree_->StringValue(child)) +
               "]/node()";
      case 8:
        return t + "[" + u + "/text()=" +
               Quote(child < 0 ? rng_->NextText(3)
                               : tree_->StringValue(child)) +
               "]";
      default:
        return t + "[" + u + "=" +
               Quote(child < 0 ? rng_->NextText(9)
                               : tree_->StringValue(child)) +
               "]";
    }
  }

  /// A path from `from` (-1: the virtual root) down to `to`, keeping a
  /// random subset of the intermediate nodes and bridging gaps with
  /// '//'. Relative paths (predicates) must start at a child.
  std::string ChainPath(int from, int to, int depth) {
    std::vector<int> chain;
    for (int n = to; n != from; n = tree_->node(n).parent) chain.push_back(n);
    std::reverse(chain.begin(), chain.end());
    const bool top_level = from < 0;
    std::string out;
    int prev = -1;  // index in chain of the previous kept node
    for (int i = 0; i < static_cast<int>(chain.size()); ++i) {
      const bool must = i + 1 == static_cast<int>(chain.size()) ||
                        (!top_level && i == 0);
      if (!must && rng_->Uniform(10) < 4) continue;
      const bool adjacent = i == prev + 1;
      if (prev < 0 && !top_level) {
        // First step of a relative path: no separator.
      } else if (!adjacent || rng_->Uniform(5) == 0) {
        out += "//";
      } else if (prev >= 0 || rng_->Uniform(5) != 0) {
        out += "/";  // absolute, or (rarely) relative to the top level
      }
      out += ChainStep(chain[static_cast<size_t>(i)], depth);
      prev = i;
    }
    return out;
  }

  std::string ChainStep(int n, int depth) {
    const DocTree::Node& node = tree_->node(n);
    std::string out;
    switch (node.type) {
      case TokenType::kBeginAttribute:
        out = rng_->Uniform(5) == 0 ? "@*" : "@" + node.name;
        break;
      case TokenType::kBeginElement: {
        const uint64_t r = rng_->Uniform(10);
        out = r < 7 ? node.name : r < 9 ? "*" : "node()";
        break;
      }
      case TokenType::kText:
        out = rng_->Uniform(5) == 0 ? "node()" : "text()";
        break;
      case TokenType::kComment:
        out = rng_->Uniform(5) == 0 ? "node()" : "comment()";
        break;
      default:
        out = "node()";
        break;
    }
    if (node.type == TokenType::kBeginElement && depth < 2 &&
        rng_->Uniform(100) < 40) {
      const uint64_t preds = 1 + rng_->Uniform(2);
      for (uint64_t i = 0; i < preds; ++i) out += ChainPredicate(n, depth + 1);
    }
    return out;
  }

  std::string ChainPredicate(int n, int depth) {
    const uint64_t r = rng_->Uniform(10);
    if (r < 3) return "[" + std::to_string(1 + rng_->Uniform(2)) + "]";
    if (r == 9 || tree_->node(n).children.empty()) return BlindPredicate(depth);
    // A random descendant: a child, then maybe deeper.
    int d = n;
    do {
      const std::vector<int>& kids = tree_->node(d).children;
      d = kids[rng_->Uniform(kids.size())];
    } while (!tree_->node(d).children.empty() && rng_->Uniform(5) < 2);
    const std::string path = ChainPath(n, d, depth);
    if (r < 6) return "[" + path + "]";
    return "[" + path + "=" +
           Quote(rng_->Uniform(4) == 0 ? rng_->NextText(3)
                                       : tree_->StringValue(d)) +
           "]";
  }

  std::string BlindPath(bool top_level, int depth) {
    const uint64_t steps = 1 + rng_->Uniform(top_level ? 4 : 2);
    std::string out;
    for (uint64_t i = 0; i < steps; ++i) {
      if (i > 0) {
        out += rng_->Uniform(4) == 0 ? "//" : "/";
      } else if (top_level) {
        const uint64_t r = rng_->Uniform(10);
        out += r < 6 ? "//" : r < 8 ? "/" : "";
      }
      out += BlindStep(depth, /*last=*/i + 1 == steps);
    }
    return out;
  }

  /// Leaf tests (attributes, text, comments) mostly end a path: nothing
  /// lies below them.
  std::string BlindStep(int depth, bool last) {
    std::string out;
    const uint64_t r = rng_->Uniform(100);
    const uint64_t leaf = last ? 40 : 6;
    if (r < leaf / 2) {
      out = "@" + (rng_->Uniform(4) == 0 ? std::string("*")
                                          : Pick(tree_->attributes(), "id"));
    } else if (r < leaf * 3 / 4) {
      out = "text()";
    } else if (r < leaf) {
      out = rng_->Uniform(3) == 0 ? "comment()" : "node()";
    } else if (r < 80) {
      out = rng_->Uniform(30) == 0 ? std::string("nosuch")
                                   : Pick(tree_->elements(), "x");
    } else {
      out = "*";
    }
    if (depth < 2 && rng_->Uniform(100) < 35) {
      const uint64_t preds = 1 + rng_->Uniform(2);
      for (uint64_t i = 0; i < preds; ++i) out += BlindPredicate(depth + 1);
    }
    return out;
  }

  std::string BlindPredicate(int depth) {
    switch (rng_->Uniform(3)) {
      case 0:
        return "[" + std::to_string(1 + rng_->Uniform(3)) + "]";
      case 1:
        return "[" + BlindPath(/*top_level=*/false, depth) + "]";
      default:
        return "[" + BlindPath(/*top_level=*/false, depth) + "=" +
               Quote(rng_->NextText(3)) + "]";
    }
  }

  static std::string Quote(const std::string& value) {
    if (value.find('\'') == std::string::npos) return "'" + value + "'";
    if (value.find('"') == std::string::npos) return "\"" + value + "\"";
    return "''";
  }

  std::string Pick(const std::vector<std::string>& from,
                   const char* fallback) {
    if (from.empty()) return fallback;
    return from[rng_->Uniform(from.size())];
  }

  Random* rng_;
  const DocTree* tree_;
};

/// Applies `count` random Table-1 operations below the top level, so no
/// schedule deletes or replaces the whole document; failures just leave
/// the store as it was.
void Mutate(Store* store, OpStreamGenerator* ops, int count) {
  for (int i = 0; i < count; ++i) {
    std::vector<NodeId> ids;
    auto tokens = store->ReadWithIds(&ids);
    ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
    std::vector<NodeId> elements, any;
    int depth = 0;
    for (size_t t = 0; t < tokens->size(); ++t) {
      const Token& token = (*tokens)[t];
      if (token.ClosesScope()) --depth;
      if (depth > 0 && token.type == TokenType::kBeginElement) {
        elements.push_back(ids[t]);
      }
      if (depth > 0 && token.BeginsNode() &&
          token.type != TokenType::kBeginAttribute) {
        any.push_back(ids[t]);
      }
      if (token.OpensScope()) ++depth;
    }
    const Operation op = ops->Next(elements, any);
    switch (op.kind) {
      case Operation::Kind::kInsertBefore:
        (void)store->InsertBefore(op.target, op.fragment);
        break;
      case Operation::Kind::kInsertAfter:
        (void)store->InsertAfter(op.target, op.fragment);
        break;
      case Operation::Kind::kInsertIntoFirst:
        (void)store->InsertIntoFirst(op.target, op.fragment);
        break;
      case Operation::Kind::kInsertIntoLast:
        (void)store->InsertIntoLast(op.target, op.fragment);
        break;
      case Operation::Kind::kDelete:
        if (any.size() > 1) (void)store->DeleteNode(op.target);
        break;
      case Operation::Kind::kReplaceNode:
        (void)store->ReplaceNode(op.target, op.fragment);
        break;
      case Operation::Kind::kReplaceContent:
        (void)store->ReplaceContent(op.target, op.fragment);
        break;
      case Operation::Kind::kRead:
        (void)store->Read(op.target);
        break;
    }
  }
}

struct Config {
  const char* doc;
  bool capped;  ///< Dictionary capped: every name stored inline.
};

TokenSequence Generate(const char* doc, Random* rng) {
  const std::string kind = doc;
  if (kind == "auction") return GenerateAuctionDocument(rng, 25);
  if (kind == "orders") return GeneratePurchaseOrdersDocument(rng, 12, 3);
  if (kind == "catalog") return GenerateCatalogDocument(rng, 12);
  return GenerateRandomTree(rng, 250, 6);
}

class XPathDifferentialTest : public ::testing::TestWithParam<Config> {};

constexpr size_t kConfigs = 8;

/// Summary-answered warm queries by shape, summed over the
/// configurations. Some shapes are rare on some documents, so each must
/// occur at least once across all of them: checked once every
/// configuration has run.
struct SummaryCounts : ::testing::Environment {
  size_t configs = 0;
  size_t one = 0, many = 0, position = 0, text = 0, attribute = 0;

  void TearDown() override {
    if (configs < kConfigs) return;  // a filtered run
#if !defined(LAXML_TRACING_DISABLED)
    EXPECT_GE(one, 1u);
    EXPECT_GE(many, 1u);
    EXPECT_GE(position, 1u);
    EXPECT_GE(text, 1u);
    EXPECT_GE(attribute, 1u);
#endif
    std::printf("path summary over %zu configurations: %zu from one "
                "partition, %zu from several, %zu [n], %zu text(), %zu "
                "'@name'\n",
                configs, one, many, position, text, attribute);
  }
};

SummaryCounts* const summary_totals = static_cast<SummaryCounts*>(
    ::testing::AddGlobalTestEnvironment(new SummaryCounts));

TEST_P(XPathDifferentialTest, EngineAgreesWithOracle) {
  const Config& config = GetParam();
  constexpr int kRounds = 5;
  constexpr int kQueriesPerRound = 120;
  constexpr uint64_t kSeed = 20261016;

  const char* names = config.capped ? "capped" : "full";
  StoreOptions options;
  options.max_range_bytes = 160;  // many ranges, many splits
  options.pager.page_size = 512;
  ASSERT_OK_AND_ASSIGN(auto store, Store::OpenInMemory(options));
  if (config.capped) store->name_dictionary()->set_byte_budget(1);
  Random rng(kSeed + (config.capped ? 1 : 2));
  ASSERT_LAXML_OK(store->InsertTopLevel(Generate(config.doc, &rng)).status());
  OpStreamGenerator ops(OpMix{}, kSeed + 1);
  XPathEvaluator evaluator(store.get());

  size_t nonempty = 0, predicated = 0, refused = 0;
  // Warm structural joins through a '*' step and onto a final '@name'
  // or text(), and those answering a [p], a [p='lit'] or a [n]
  // predicate of the path's steps by semi-joins. An element's '='
  // counts apart, by whether the literal fits a value key inline (at
  // most 7 bytes) or is hashed.
  size_t joined_wildcard = 0, joined_attribute = 0, joined_text = 0;
  size_t joined_exists = 0, joined_equals = 0, joined_position = 0;
  size_t joined_value_inline = 0, joined_value_hashed = 0;
  // Warm queries the path summary answered: from one label-path
  // partition, from several, with a final child step's [n], onto text()
  // and onto '@name'.
  size_t summary_one = 0, summary_many = 0, summary_position = 0;
  size_t summary_text = 0, summary_attribute = 0;
  bool has_attributes = false;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) {
      Mutate(store.get(), &ops, 6);
      if (::testing::Test::HasFatalFailure()) return;
    }
    XPathOracle oracle(store.get());
    ASSERT_OK_AND_ASSIGN(TokenSequence tokens, store->Read());
    const DocTree tree(tokens);
    has_attributes = has_attributes || !tree.attributes().empty();
    QueryGenerator gen(&rng, &tree);
    for (int q = 0; q < kQueriesPerRound; ++q) {
      const std::string expr = gen.Query();
      ASSERT_OK_AND_ASSIGN(XPathPath path, ParseXPath(expr));
      const std::vector<NodeId> expected = oracle.Evaluate(path);
      // Twice: a path the gate accepts runs cold (scan + warm), then
      // warm (a structural join); any other path scans both times.
      const bool joins = StructuralIneligibilityReason(path) == nullptr;
      if (!joins) ++refused;
      for (int pass = 0; pass < 2; ++pass) {
        obs::RequestContext rc;
        obs::ScopedRequestContext scoped(&rc);
        ASSERT_OK_AND_ASSIGN(std::vector<NodeId> got,
                             evaluator.Evaluate(path));
        ASSERT_EQ(got, expected)
            << expr << " (" << config.doc << ", " << names
            << " dictionary, round " << round << ", pass " << pass << ")";
#if !defined(LAXML_TRACING_DISABLED)
        if (pass == 1) {
          ASSERT_NE(rc.plan, nullptr) << expr;
          ASSERT_STREQ(rc.plan, joins ? "structural-join" : "stream-scan")
              << expr << " (" << config.doc << ", " << names
              << " dictionary, round " << round << ")";
        }
#endif
        if (pass == 1 && rc.plan != nullptr &&
            std::strcmp(rc.plan, "structural-join") == 0) {
          for (const XPathStep& step : path.steps) {
            if (step.test == NodeTestKind::kWildcard) ++joined_wildcard;
          }
          if (path.steps.back().axis == XPathAxis::kAttribute) {
            ++joined_attribute;
          }
          if (path.steps.back().test == NodeTestKind::kText) ++joined_text;
          bool exists = false, equals = false, position = false;
          bool value_inline = false, value_hashed = false;
          for (const XPathStep& step : path.steps) {
            for (const XPathPredicate& pred : step.predicates) {
              exists = exists || pred.kind == XPathPredicate::Kind::kExists;
              equals = equals || pred.kind == XPathPredicate::Kind::kEquals;
              position =
                  position || pred.kind == XPathPredicate::Kind::kPosition;
              if (pred.kind == XPathPredicate::Kind::kEquals &&
                  pred.path.steps.back().axis != XPathAxis::kAttribute) {
                (pred.literal.size() <= 7 ? value_inline : value_hashed) =
                    true;
              }
            }
          }
          joined_exists += exists ? 1 : 0;
          joined_equals += equals ? 1 : 0;
          joined_position += position ? 1 : 0;
          joined_value_inline += value_inline ? 1 : 0;
          joined_value_hashed += value_hashed ? 1 : 0;
          ASSERT_OK_AND_ASSIGN(XPathAccessPlan plan, PlanXPath(*store, path));
          if (plan.summary_paths > 0) {
            ++(plan.summary_paths == 1 ? summary_one : summary_many);
            summary_position += position ? 1 : 0;
            if (path.steps.back().test == NodeTestKind::kText) ++summary_text;
            if (path.steps.back().axis == XPathAxis::kAttribute) {
              ++summary_attribute;
            }
          }
        }
      }
      ASSERT_OK_AND_ASSIGN(
          std::vector<NodeId> scanned,
          EvaluateXPathStreaming(*store, path,
                                 /*allow_structural_index=*/false));
      ASSERT_EQ(scanned, expected) << expr << " (forced scan)";
      if (!expected.empty()) ++nonempty;
      if (expr.find('[') != std::string::npos) ++predicated;
    }
    // The round's warm postings, value keys included, against the
    // auditor's own decode of the stream.
    const Status integrity = store->CheckIntegrity();
    ASSERT_TRUE(integrity.ok())
        << "round " << round << ": " << integrity.ToString();
  }
  // The generator must exercise the interesting cases, not just return
  // empty sets.
  EXPECT_GT(nonempty, kRounds * kQueriesPerRound / 4);
  EXPECT_GT(predicated, kRounds * kQueriesPerRound / 4);
#if !defined(LAXML_TRACING_DISABLED)
  // The warm pass must exercise joins through '*' steps, onto text(),
  // with [p], [n] and element [p='lit'] semi-joins — literals inline
  // and hashed — and (where the document has attributes) onto '@name'
  // steps and with [@a='lit'] semi-joins, so each is checked against
  // the oracle.
  EXPECT_GE(joined_wildcard, 1u);
  EXPECT_GE(joined_text, 1u);
  EXPECT_GE(joined_exists, 1u);
  EXPECT_GE(joined_position, 1u);
  EXPECT_GE(joined_value_inline, 1u);
  EXPECT_GE(joined_value_hashed, 1u);
  if (has_attributes) {
    EXPECT_GE(joined_attribute, 1u);
    EXPECT_GE(joined_equals, 1u);
  }
#endif
  ++summary_totals->configs;
  summary_totals->one += summary_one;
  summary_totals->many += summary_many;
  summary_totals->position += summary_position;
  summary_totals->text += summary_text;
  summary_totals->attribute += summary_attribute;
  std::printf("%s, %s dictionary: %zu of %d queries non-empty, %zu with "
              "predicates, %zu scanned when warm; joined: %zu '*' steps, "
              "%zu '@name' steps, %zu text() steps, %zu [p], %zu [p='lit'] "
              "(element values: %zu inline, %zu hashed), %zu [n]; path "
              "summary: %zu from one partition, %zu from several, %zu [n], "
              "%zu text(), %zu '@name'\n",
              config.doc, names, nonempty, kRounds * kQueriesPerRound,
              predicated, refused, joined_wildcard, joined_attribute,
              joined_text, joined_exists, joined_equals, joined_value_inline,
              joined_value_hashed, joined_position, summary_one, summary_many,
              summary_position, summary_text, summary_attribute);
}

INSTANTIATE_TEST_SUITE_P(
    Documents, XPathDifferentialTest,
    ::testing::Values(Config{"auction", true}, Config{"auction", false},
                      Config{"random", true}, Config{"random", false},
                      Config{"orders", true}, Config{"orders", false},
                      Config{"catalog", true}, Config{"catalog", false}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.doc) +
             (info.param.capped ? "_capped" : "_full");
    });

}  // namespace
}  // namespace laxml
