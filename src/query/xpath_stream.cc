#include "query/xpath_stream.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "index/structural_index.h"
#include "obs/request_context.h"
#include "query/xpath_parser.h"
#include "store/cursor.h"

namespace laxml {

namespace {

constexpr uint32_t kNone = UINT32_MAX;

uint64_t Bit(uint32_t i) { return uint64_t{1} << i; }

uint32_t LowestBit(uint64_t mask) {
  return static_cast<uint32_t>(std::countr_zero(mask));
}

Status TooManySteps() {
  return Status::NotSupported(
      "XPath paths are limited to 64 steps, predicate steps included");
}

/// A step a posting-list join can evaluate, predicates aside.
bool NamedChildOrDescendant(const XPathStep& step) {
  return !step.descendant_attr &&
         (step.axis == XPathAxis::kChild ||
          step.axis == XPathAxis::kDescendant) &&
         step.test == NodeTestKind::kName;
}

/// A joined step with a posting list of its own: a named element or
/// '@name' step. The join counts a '*' step as a level and answers a
/// final text() step from its parents' entries.
bool HasPostings(const XPathStep& step) {
  return step.test == NodeTestKind::kName;
}

/// Extends a prefix match of `literal` (`*matched` bytes so far) by the
/// next piece of a string value: false once the two diverge.
bool ExtendMatch(std::string_view literal, std::string_view text,
                 size_t* matched) {
  if (text.size() > literal.size() - *matched ||
      literal.compare(*matched, text.size(), text) != 0) {
    return false;
  }
  *matched += text.size();
  return true;
}

const char* StepIneligibility(const XPathPath& path, size_t i,
                              bool relative = false);

/// nullptr when a semi-join over the postings answers `pred` on a named
/// element step, else why not. [n] always; [p] and [p='lit'] when p is
/// a predicate-free path the join could run from the step's node. Such
/// a path ends on an element or an attribute, whose value key answers
/// the '='.
const char* PredicateIneligibility(const XPathPredicate& pred) {
  if (pred.kind == XPathPredicate::Kind::kPosition) return nullptr;
  const XPathPath& p = pred.path;
  for (const XPathStep& step : p.steps) {
    if (!step.predicates.empty()) return "nested predicate";
  }
  for (size_t i = 0; i < p.steps.size(); ++i) {
    if (StepIneligibility(p, i, /*relative=*/true) != nullptr) {
      return "predicate path not indexable";
    }
  }
  return nullptr;
}

/// nullptr when step `i` of `path` can be part of a join, else why not.
/// Besides named child/descendant steps, a join takes '*' child steps
/// between two named steps (level arithmetic in the join), a final
/// '@name' step (the attribute's posting list), a final
/// predicate-free text() child step of the query path after a named
/// step (its parents' entries locate their text), and the predicates
/// of a named element step that PredicateIneligibility accepts. A
/// `relative` path (a predicate's) starts at its owner element, so it
/// may begin with an '@name' or a '*' step.
const char* StepIneligibility(const XPathPath& path, size_t i,
                              bool relative) {
  const XPathStep& step = path.steps[i];
  const bool last = i + 1 == path.steps.size();
  if (!step.predicates.empty()) {
    if (!NamedChildOrDescendant(step)) return "has predicates";
    for (const XPathPredicate& pred : step.predicates) {
      if (const char* reason = PredicateIneligibility(pred)) return reason;
      // '//x[n]' numbers x per context node, and after '*' that node is
      // the wildcard's match, which no posting list holds.
      if (pred.kind == XPathPredicate::Kind::kPosition &&
          step.axis == XPathAxis::kDescendant && i > 0 &&
          path.steps[i - 1].test == NodeTestKind::kWildcard) {
        return "position after a wildcard step";
      }
    }
  }
  if (step.descendant_attr) return "descendant attribute step";
  if (step.axis == XPathAxis::kAttribute) {
    if (step.test != NodeTestKind::kName) return "attribute wildcard step";
    if (i == 0 && !relative) return "attribute step without an element step";
    if (!last) return "attribute step before the last step";
    return nullptr;
  }
  if (step.test == NodeTestKind::kWildcard) {
    if (step.axis != XPathAxis::kChild) return "descendant wildcard step";
    if (i == 0 && !relative) return "leading wildcard step";
    if (last) return "trailing wildcard step";
    return nullptr;
  }
  if (step.test == NodeTestKind::kText && step.axis == XPathAxis::kChild &&
      last && !relative && i > 0 &&
      NamedChildOrDescendant(path.steps[i - 1])) {
    return nullptr;
  }
  if (step.test != NodeTestKind::kName) return "non-name node test";
  return nullptr;
}

/// One streaming evaluation of a path over the token cursor.
///
/// The steps of the path and of every predicate path are flattened into
/// one array of at most 64, so a set of steps is a uint64_t. Each open
/// scope, plus the virtual root, has a frame saying which steps its
/// children are tested against ("armed"); '//' steps stay armed below.
///
/// A match can be conditional. A node matching a step that has [path]
/// predicates becomes a *candidate* whose fate its end token decides.
/// Whatever follows from it — the next step armed in its subtree, the
/// results and predicate hits those produce — is recorded against the
/// candidate as its *gate*: it waits in the candidate's buffer while
/// the candidate is pending, flows on to the candidate's own gates once
/// the last predicate holds, and is dropped if the candidate ends
/// unsatisfied. kNone is the gate of unconditional matches. Positional
/// steps count test matches per context node (one Context per node and
/// gate), because '//x[n]' numbers x within each context separately.
///
/// Any scope that opens dead is skipped (Dead()).
class StreamScan {
 public:
  /// Flattens `path`, which PlanXPath held to kMaxStreamSteps steps.
  void Init(const Store& store, const XPathPath& path) {
    Flatten(path, kNone, 0, nullptr);
    const NameDictionary* dict = store.name_dictionary();
    for (uint32_t i = 0; i < steps_.size(); ++i) {
      Step& s = steps_[i];
      if (s.ast->test == NodeTestKind::kName) {
        s.symbol = dict->Find(s.ast->name);
      }
      IndexTest(i);
    }
    main_last_ = Bit(static_cast<uint32_t>(path.steps.size() - 1));
    frames_.push_back(Frame{0, 0});  // the virtual root
  }

  /// Streams the whole store. `warmer`, when set, sees every token (and
  /// so disables dead-subtree skipping).
  Status Run(TokenCursor* cursor, StructuralWarmer* warmer) {
    warmer_ = warmer;
    Arm(0, kNone);
    LAXML_RETURN_IF_ERROR(cursor->SeekToFirst());
    while (cursor->Valid()) {
      if (warmer_ != nullptr) warmer_->OnToken(*cursor);
      const TokenType type = cursor->type();
      if (TokenBeginsNode(type)) {
        OnBegin(*cursor, type);
        if (TokenOpensScope(type) && Dead()) {
          // Lands on the scope's end token, which pops its frame.
          LAXML_RETURN_IF_ERROR(cursor->SkipSubtree());
          continue;
        }
      } else if (TokenClosesScope(type)) {
        if (frames_.size() == 1) {
          return Status::Corruption("negative nesting in stream");
        }
        OnEnd();
      }
      LAXML_RETURN_IF_ERROR(cursor->Next());
    }
    return Status::OK();
  }

  /// The matches in document order, duplicate-free.
  std::vector<NodeId> TakeResults() {
    if (!ordered_) {
      std::sort(results_.begin(), results_.end());
      results_.erase(std::unique(results_.begin(), results_.end()),
                     results_.end());
    }
    std::vector<NodeId> ids;
    ids.reserve(results_.size());
    for (const auto& result : results_) ids.push_back(result.second);
    return ids;
  }

 private:
  struct Step {
    const XPathStep* ast = nullptr;
    uint32_t symbol = kNoNameSymbol;  ///< Name's dictionary symbol.
    uint64_t position = 0;            ///< Required [n]; 0 = none.
    bool never = false;               ///< Conflicting [n][m].
    /// Bits of this step's [path] / [path='lit'] predicates, and the
    /// first step of each predicate's path, by bit.
    uint64_t filters = 0;
    std::vector<uint32_t> heads;
    /// Set on the last step of a predicate path: the step owning the
    /// predicate, its bit there, and the '=' literal (null for [path]).
    uint32_t owner = kNone;
    uint32_t bit = 0;
    const std::string* literal = nullptr;
  };

  /// A result (owner == kNone: the node at `ordinal`) or a predicate
  /// hit (predicate `bit` of the candidate at step `owner`).
  struct Event {
    uint64_t ordinal;
    NodeId id;
    uint32_t owner;
    uint32_t bit;
  };

  struct Frame {
    uint64_t armed;  ///< Steps armed for this scope's children.
    uint32_t conds;  ///< First of this frame's entries in conds_.
  };

  /// Steps armed for a frame's children under a pending gate.
  struct Cond {
    uint32_t gate;
    uint64_t steps;
  };

  /// Position counter of positional `step` within the node of `frame`.
  struct Context {
    uint32_t step;
    uint32_t gate;
    uint32_t frame;
    uint64_t count;
  };

  struct Candidate {
    uint32_t step;
    uint32_t frame;
    uint64_t pending;  ///< Filter bits not yet satisfied.
    std::vector<uint32_t> gates;
    std::vector<Event> buffer;
  };

  /// String value of an element answering a '=' predicate, compared
  /// against the literal as its text streams past.
  struct Capture {
    uint32_t step;
    uint32_t frame;
    size_t matched;  ///< Literal bytes matched so far, or kDiverged.
    std::vector<uint32_t> gates;
  };
  static constexpr size_t kDiverged = SIZE_MAX;

  struct Match {
    uint32_t step;
    uint32_t gate;
  };

  /// True when nothing inside the scope that just opened can match or
  /// decide anything: no step armed for its children, no pending
  /// condition, no positional context counting inside it, no '='
  /// capture reading its text, and no warmer.
  bool Dead() const {
    const uint32_t top = static_cast<uint32_t>(frames_.size() - 1);
    if (frames_[top].armed != 0 || conds_.size() > frames_[top].conds ||
        !captures_.empty() || warmer_ != nullptr) {
      return false;
    }
    for (const Context& c : contexts_) {
      if (c.frame == top || (recursive_ & Bit(c.step)) != 0) return false;
    }
    return true;
  }

  void Flatten(const XPathPath& path, uint32_t owner, uint32_t bit,
               const std::string* literal) {
    LAXML_DCHECK(steps_.size() + path.steps.size() <= kMaxStreamSteps);
    const uint32_t first = static_cast<uint32_t>(steps_.size());
    for (const XPathStep& ast : path.steps) {
      steps_.emplace_back();
      steps_.back().ast = &ast;
    }
    const uint32_t last = static_cast<uint32_t>(steps_.size() - 1);
    steps_[last].owner = owner;
    steps_[last].bit = bit;
    steps_[last].literal = literal;
    last_ |= Bit(last);
    for (uint32_t i = first; i <= last; ++i) {
      const XPathStep& ast = *steps_[i].ast;
      if (ast.axis == XPathAxis::kDescendant || ast.descendant_attr) {
        recursive_ |= Bit(i);
      }
      uint32_t filters = 0;
      for (const XPathPredicate& pred : ast.predicates) {
        if (pred.kind == XPathPredicate::Kind::kPosition) {
          positional_ |= Bit(i);
          if (steps_[i].position != 0 && steps_[i].position != pred.position) {
            steps_[i].never = true;
          }
          steps_[i].position = pred.position;
          continue;
        }
        steps_[i].filters |= Bit(filters);
        steps_[i].heads.push_back(static_cast<uint32_t>(steps_.size()));
        Flatten(pred.path, i, filters,
                pred.kind == XPathPredicate::Kind::kEquals ? &pred.literal
                                                           : nullptr);
        ++filters;
      }
      if (steps_[i].filters != 0) filtered_ |= Bit(i);
    }
  }

  /// Records which token types step `i`'s node test accepts and whether
  /// it also compares names. The attribute axis selects only
  /// attributes; no other axis does.
  void IndexTest(uint32_t i) {
    const XPathStep& ast = *steps_[i].ast;
    auto accept = [&](TokenType type) {
      by_type_[static_cast<size_t>(type)] |= Bit(i);
    };
    if (ast.axis == XPathAxis::kAttribute) {
      accept(TokenType::kBeginAttribute);
      if (ast.test != NodeTestKind::kWildcard) named_ |= Bit(i);
      return;
    }
    switch (ast.test) {
      case NodeTestKind::kName:
        named_ |= Bit(i);
        accept(TokenType::kBeginElement);
        break;
      case NodeTestKind::kWildcard:
        accept(TokenType::kBeginElement);
        break;
      case NodeTestKind::kText:
        accept(TokenType::kText);
        break;
      case NodeTestKind::kComment:
        accept(TokenType::kComment);
        break;
      case NodeTestKind::kAnyNode:
        for (TokenType type :
             {TokenType::kBeginDocument, TokenType::kBeginElement,
              TokenType::kText, TokenType::kComment,
              TokenType::kProcessingInstruction}) {
          accept(type);
        }
        break;
    }
  }

  /// Name test. Interning is injective, so a symbol-coded name equals
  /// the step's name iff the symbols are equal (a name never interned
  /// has kNoNameSymbol, which equals no symbol). Names without a symbol
  /// (inline fallbacks) compare as strings.
  static bool NameMatches(const Step& s, const TokenCursor& cursor) {
    if (cursor.name_symbol() != kNoNameSymbol) {
      return cursor.name_symbol() == s.symbol;
    }
    return cursor.token().name == s.ast->name;
  }

  /// The subset of `steps` whose node test the current token passes.
  uint64_t Test(uint64_t steps, TokenType type,
                const TokenCursor& cursor) const {
    uint64_t hit = steps & by_type_[static_cast<size_t>(type)];
    for (uint64_t m = hit & named_; m != 0; m &= m - 1) {
      if (!NameMatches(steps_[LowestBit(m)], cursor)) {
        hit &= ~Bit(LowestBit(m));
      }
    }
    return hit;
  }

  void OnBegin(const TokenCursor& cursor, TokenType type) {
    if (type == TokenType::kText && !captures_.empty()) {
      Feed(cursor.value_view());
    }
    const uint32_t parent = static_cast<uint32_t>(frames_.size() - 1);
    const Frame frame = frames_[parent];
    const uint32_t conds_end = static_cast<uint32_t>(conds_.size());

    // Which armed steps does this node match, and under which gates?
    const uint64_t hit = Test(frame.armed, type, cursor);
    matches_.clear();
    for (uint32_t k = frame.conds; k < conds_end; ++k) {
      // An unconditional match already covers every gate.
      for (uint64_t m = Test(conds_[k].steps & ~hit, type, cursor); m != 0;
           m &= m - 1) {
        matches_.push_back({LowestBit(m), conds_[k].gate});
      }
    }
    for (Context& c : contexts_) {
      if (c.frame != parent && (recursive_ & Bit(c.step)) == 0) continue;
      if (Test(Bit(c.step), type, cursor) != 0 &&
          ++c.count == steps_[c.step].position) {
        matches_.push_back({c.step, c.gate});
      }
    }

    // The node's own frame: '//' steps stay armed under the same gates.
    const bool opens = TokenOpensScope(type);
    if (opens) {
      frames_.push_back(Frame{frame.armed & recursive_, conds_end});
      for (uint32_t k = frame.conds; k < conds_end; ++k) {
        const Cond inherited{conds_[k].gate, conds_[k].steps & recursive_};
        if (inherited.steps != 0) conds_.push_back(inherited);
      }
    }
    if (hit == 0 && matches_.empty()) return;

    // Unconditional matches without [path] predicates, bit-parallel.
    const uint64_t plain = hit & ~filtered_;
    if ((plain & main_last_) != 0) {
      DeliverTo(Event{cursor.ordinal(), cursor.node_id(), kNone, 0}, kNone);
    }
    if (opens) {
      const uint64_t next = (plain & ~last_) << 1;
      frames_.back().armed |= next & ~positional_;
      for (uint64_t m = next & positional_; m != 0; m &= m - 1) {
        Arm(LowestBit(m), kNone);
      }
    }
    for (uint64_t m = hit & filtered_; m != 0; m &= m - 1) {
      gates_.assign(1, kNone);
      OnMatch(LowestBit(m), cursor, type, opens);
    }

    // Gated and positional matches, one OnMatch per step.
    uint64_t steps = 0;
    for (const Match& mt : matches_) steps |= Bit(mt.step);
    for (; steps != 0; steps &= steps - 1) {
      const uint32_t i = LowestBit(steps);
      gates_.clear();
      for (const Match& mt : matches_) {
        if (mt.step != i) continue;
        if (mt.gate == kNone) {
          gates_.assign(1, kNone);
          break;
        }
        if (std::find(gates_.begin(), gates_.end(), mt.gate) == gates_.end()) {
          gates_.push_back(mt.gate);
        }
      }
      OnMatch(i, cursor, type, opens);
    }
  }

  /// The node matched step `i` under the gates in gates_.
  void OnMatch(uint32_t i, const TokenCursor& cursor, TokenType type,
               bool opens) {
    const Step& s = steps_[i];
    const std::vector<uint32_t>* gates = &gates_;
    if (s.filters != 0) {
      // [path] predicates look into the subtree; a node without one
      // fails them.
      if (!opens) return;
      const uint32_t candidate = NewCandidate(i);
      for (uint64_t m = s.filters; m != 0; m &= m - 1) {
        Arm(s.heads[LowestBit(m)], candidate);
      }
      self_.assign(1, candidate);
      gates = &self_;
    }
    if ((Bit(i) & main_last_) != 0) {
      DeliverAll(Event{cursor.ordinal(), cursor.node_id(), kNone, 0}, *gates);
    } else if (s.owner != kNone) {
      // The last step of a predicate path: the predicate holds here.
      const Event hit{0, kInvalidNodeId, s.owner, s.bit};
      if (s.literal == nullptr) {
        DeliverAll(hit, *gates);
      } else if (type == TokenType::kBeginElement ||
                 type == TokenType::kBeginDocument) {
        captures_.push_back(Capture{
            i, static_cast<uint32_t>(frames_.size() - 1), 0, *gates});
      } else if (cursor.value_view() == *s.literal) {
        DeliverAll(hit, *gates);
      }
    } else if (opens) {
      for (uint32_t gate : *gates) Arm(i + 1, gate);
    }
  }

  /// Arms step `j` for the children of the newest frame under `gate`.
  void Arm(uint32_t j, uint32_t gate) {
    if (steps_[j].never) return;
    const uint32_t top = static_cast<uint32_t>(frames_.size() - 1);
    if ((positional_ & Bit(j)) != 0) {
      contexts_.push_back(Context{j, gate, top, 0});
    } else if (gate == kNone) {
      frames_[top].armed |= Bit(j);
    } else {
      for (uint32_t k = frames_[top].conds; k < conds_.size(); ++k) {
        if (conds_[k].gate == gate) {
          conds_[k].steps |= Bit(j);
          return;
        }
      }
      conds_.push_back(Cond{gate, Bit(j)});
    }
  }

  /// A candidate for step `i` at the newest frame, gated by gates_.
  uint32_t NewCandidate(uint32_t i) {
    if (ncands_ == cands_.size()) cands_.emplace_back();
    Candidate& c = cands_[ncands_];
    c.step = i;
    c.frame = static_cast<uint32_t>(frames_.size() - 1);
    c.pending = steps_[i].filters;
    c.gates = gates_;
    c.buffer.clear();
    return ncands_++;
  }

  void DeliverAll(const Event& e, const std::vector<uint32_t>& gates) {
    for (uint32_t gate : gates) DeliverTo(e, gate);
  }

  void DeliverTo(const Event& e, uint32_t gate) {
    if (gate == kNone) {
      LAXML_DCHECK(e.owner == kNone) << "predicate hit escaped its owner";
      if (!results_.empty() && e.ordinal <= results_.back().first) {
        ordered_ = false;
      }
      results_.emplace_back(e.ordinal, e.id);
      return;
    }
    // Gates name enclosing candidates only, so no candidate is created
    // (and cands_ never reallocates) while an event travels.
    Candidate& c = cands_[gate];
    if (e.owner == c.step) {
      // The candidate's own predicate: a hit travels only through the
      // candidates its predicate path created, all at other steps.
      if (c.pending != 0) {
        c.pending &= ~Bit(e.bit);
        if (c.pending == 0) Pass(gate);
      }
    } else if (c.pending == 0) {
      for (uint32_t up : c.gates) DeliverTo(e, up);
    } else {
      c.buffer.push_back(e);
    }
  }

  /// Candidate `gate` satisfied its last predicate: release its buffer.
  void Pass(uint32_t gate) {
    std::vector<Event> waiting;
    waiting.swap(cands_[gate].buffer);
    for (const Event& e : waiting) {
      for (uint32_t up : cands_[gate].gates) DeliverTo(e, up);
    }
    waiting.clear();
    cands_[gate].buffer.swap(waiting);  // keeps the capacity for reuse
  }

  void Feed(std::string_view text) {
    for (Capture& cap : captures_) {
      if (cap.matched != kDiverged &&
          !ExtendMatch(*steps_[cap.step].literal, text, &cap.matched)) {
        cap.matched = kDiverged;
      }
    }
  }

  void OnEnd() {
    const uint32_t top = static_cast<uint32_t>(frames_.size() - 1);
    // String values first: a capture may answer a candidate at the
    // same node.
    while (!captures_.empty() && captures_.back().frame == top) {
      const Capture& cap = captures_.back();
      const Step& s = steps_[cap.step];
      if (cap.matched == s.literal->size()) {
        DeliverAll(Event{0, kInvalidNodeId, s.owner, s.bit}, cap.gates);
      }
      captures_.pop_back();
    }
    // A candidate still pending at its end failed; its buffer is
    // dropped on reuse.
    while (ncands_ > 0 && cands_[ncands_ - 1].frame == top) --ncands_;
    while (!contexts_.empty() && contexts_.back().frame == top) {
      contexts_.pop_back();
    }
    conds_.resize(frames_[top].conds);
    frames_.pop_back();
  }

  std::vector<Step> steps_;
  uint64_t recursive_ = 0;   ///< '//' steps (incl. '//@a').
  uint64_t positional_ = 0;  ///< Steps with [n].
  uint64_t filtered_ = 0;    ///< Steps with [path] or [path='lit'].
  uint64_t last_ = 0;        ///< Last step of each path.
  uint64_t main_last_ = 0;   ///< Last step of the query path.
  uint64_t named_ = 0;       ///< Steps whose test compares names.
  static constexpr size_t kTokenTypes =
      static_cast<size_t>(TokenType::kProcessingInstruction) + 1;
  uint64_t by_type_[kTokenTypes] = {};  ///< Steps accepting each type.

  std::vector<Frame> frames_;
  std::vector<Cond> conds_;
  std::vector<Context> contexts_;
  std::vector<Candidate> cands_;  ///< [0, ncands_) are open.
  uint32_t ncands_ = 0;
  std::vector<Capture> captures_;

  StructuralWarmer* warmer_ = nullptr;

  std::vector<std::pair<uint64_t, NodeId>> results_;  ///< (ordinal, id)
  bool ordered_ = true;  ///< results_ is strictly increasing.

  // Per-node scratch.
  std::vector<Match> matches_;
  std::vector<uint32_t> gates_;
  std::vector<uint32_t> self_;
};

/// Steps of `path` and of every predicate path in it, nested ones
/// included: what StreamScan flattens into its 64-bit masks.
size_t CountSteps(const XPathPath& path) {
  size_t n = path.steps.size();
  for (const XPathStep& step : path.steps) {
    for (const XPathPredicate& pred : step.predicates) {
      n += CountSteps(pred.path);
    }
  }
  return n;
}

/// Calls `visit` on each step whose posting list the join of `path`
/// reads, '*' and text() steps included, in join order (see
/// XPathAccessPlan::lists). Predicate paths the join answers are
/// predicate-free.
template <typename Visit>
void ForEachJoinStep(const XPathPath& path, const Visit& visit) {
  for (const XPathStep& step : path.steps) {
    visit(step);
    for (const XPathPredicate& pred : step.predicates) {
      for (const XPathStep& p : pred.path.steps) visit(p);
    }
  }
}

/// The structural-index tag of a named step: its element name, or the
/// AttributeKey of an '@name' step.
std::string StructuralKey(const XPathStep& step) {
  return step.axis == XPathAxis::kAttribute ? AttributeKey(step.name)
                                            : step.name;
}

using Entries = std::vector<StructuralEntry>;
using EntryList = StructuralIndex::EntryList;

Status Disagrees() {
  return Status::Corruption(
      "structural index entry disagrees with the token stream");
}

/// `list` joined below `frontier` along `step`'s axis (an '@name' step
/// joins as a child), `skip` '*' levels further down.
StructuralSelection AxisJoin(const StructuralSpan& frontier,
                             const Entries& list, const XPathStep& step,
                             uint32_t skip, uint64_t* read) {
  return step.axis == XPathAxis::kDescendant
             ? StructuralDescendantJoin(frontier, list, skip, read)
             : StructuralChildJoin(frontier, list, skip, read);
}

/// Every entry of `list`, selected.
StructuralSelection SelectAll(const Entries& list, uint64_t* read) {
  *read += list.size();
  StructuralSelection all;
  all.reserve(list.size());
  for (const StructuralEntry& e : list) all.push_back(&e);
  return all;
}

/// The `matches` of `step` (joined below `context`; null: the virtual
/// root) that its [n] predicates keep. A position numbers every match
/// of the step's test in its context, whatever the step's other
/// predicates keep (the scan's semantics, and the oracle's), so the
/// positions apply first and together: [n][m] with n != m keeps
/// nothing.
StructuralSelection Number(const XPathStep& step,
                           const StructuralSpan* context,
                           StructuralSelection matches, uint64_t* read) {
  uint64_t n = 0;
  for (const XPathPredicate& pred : step.predicates) {
    if (pred.kind != XPathPredicate::Kind::kPosition) continue;
    if (n != 0 && n != pred.position) return {};
    n = pred.position;
  }
  if (n == 0) return matches;
  if (step.axis == XPathAxis::kChild) {
    return StructuralNthPerParent(matches, n, read);
  }
  if (context == nullptr) {
    if (n > matches.size()) return {};
    return {matches[n - 1]};
  }
  return StructuralNthDescendant(*context, matches, n, read);
}

// ---------------------------------------------------------------------------
// The path summary

/// The step whose partitions the summary reads when it can answer
/// `path` (one the gate accepts): the last named step, the one a final
/// text() follows. kNoSummary when a predicate other than [n] on a
/// final child step needs the joins.
constexpr size_t kNoSummary = SIZE_MAX;

size_t SummaryStep(const XPathPath& path) {
  const size_t n = path.steps.size();
  for (size_t i = 0; i < n; ++i) {
    for (const XPathPredicate& pred : path.steps[i].predicates) {
      if (pred.kind != XPathPredicate::Kind::kPosition || i + 1 != n ||
          path.steps[i].axis != XPathAxis::kChild) {
        return kNoSummary;
      }
    }
  }
  return path.steps[n - 1].test == NodeTestKind::kText ? n - 2 : n - 1;
}

/// Whether `label` passes `step`'s test: '*' any element label, a name
/// the element (or, on the attribute axis, attribute) label of that
/// name.
bool LabelMatches(const XPathStep& step, const LabelPath& label) {
  if (label.attribute != (step.axis == XPathAxis::kAttribute)) return false;
  return step.test == NodeTestKind::kWildcard || label.name == step.name;
}

/// Most labels the summary matches; a deeper label path sends the query
/// to the joins.
constexpr uint32_t kMaxSummaryDepth = 63;

/// Whether the first `count` steps of `path`, from the virtual root,
/// select nodes on `label`'s path: a child step takes the next label, a
/// descendant step any later one, and the last step the last label.
/// Bit j of `reach` says the steps so far can end having matched the
/// top j labels.
bool PathMatches(const XPathPath& path, size_t count, const LabelPath& label) {
  const LabelPath* labels[kMaxSummaryDepth];
  for (const LabelPath* l = &label; l->parent != nullptr; l = l->parent) {
    labels[l->depth - 1] = l;
  }
  uint64_t reach = 1;
  for (size_t i = 0; i < count && reach != 0; ++i) {
    const XPathStep& step = path.steps[i];
    uint64_t matches = 0;
    for (uint32_t j = 0; j < label.depth; ++j) {
      if (LabelMatches(step, *labels[j])) matches |= uint64_t{1} << j;
    }
    // A descendant step may skip any labels past the lowest reached.
    const uint64_t from =
        step.axis == XPathAxis::kDescendant ? ~((reach & -reach) - 1) : reach;
    reach = (from & matches) << 1;
  }
  return (reach >> label.depth & 1) != 0;
}

/// Answers `path` from step `s`'s partitions when any match it: the
/// entries of every matching partition, in pre order (with a final
/// child step's [n] applied). False when the list has no partitions,
/// none matches or a label path is too deep: the joins answer.
bool SummaryAnswer(const XPathPath& path, size_t s,
                   const StructuralIndex::TagPostings& postings,
                   XPathAccessPlan* plan) {
  const std::vector<PathPartition>& parts = *postings.partitions;
  if (parts.empty()) return false;
  std::vector<const StructuralSelection*> matched;
  for (const PathPartition& part : parts) {
    if (part.path->depth > kMaxSummaryDepth) return false;
    if (PathMatches(path, s + 1, *part.path)) matched.push_back(&part.entries);
  }
  if (matched.empty()) return false;
  uint64_t read = 0;
  StructuralSelection entries;
  if (matched.size() == parts.size()) {
    entries = SelectAll(*postings.list, &read);  // the whole list, in place
  } else {
    entries = matched.size() == 1 ? *matched[0] : StructuralMergeRuns(matched);
    read += entries.size();
  }
  plan->summary_paths = matched.size();
  plan->summary_postings = read;
  plan->entries = Number(path.steps[s], nullptr, std::move(entries), &read);
  plan->postings_read = read;
  return true;
}

/// The posting-list join of a whole path, left to right, over the lists
/// the plan looked up (all warm); each step's predicates filter its
/// matches, as semi-joins. Every intermediate result is a selection
/// into those lists.
class PostingJoin {
 public:
  PostingJoin(const Store& store, const XPathAccessPlan& plan)
      : store_(store), plan_(plan) {}

  /// The postings the joins have visited so far.
  uint64_t postings_read() const { return read_; }

  /// The entries the steps of `path` select.
  Result<StructuralSelection> Run(const XPathPath& path) {
    StructuralSelection frontier;
    // Set instead of `frontier` after a predicate-free '//' step 0.
    const Entries* whole = nullptr;
    bool root = true;  // before step 0: the virtual root
    // '*' steps add no list, only levels between the named steps
    // around them.
    uint32_t skip = 0;
    for (const XPathStep& step : path.steps) {
      // A final text() step: its parents' entries answer it.
      if (step.test == NodeTestKind::kText) break;
      const EntryList& list = plan_.lists[next_++];
      if (list == nullptr) {
        ++skip;
        continue;
      }
      // Step 0 evaluates against the virtual root: its children are the
      // top-level (level-0) elements, its descendants the whole list,
      // read in place unless a predicate filters it.
      const StructuralSpan context =
          whole != nullptr ? StructuralSpan(*whole) : StructuralSpan(frontier);
      StructuralSelection matches;
      if (!root) {
        matches = AxisJoin(context, *list, step, skip, &read_);
      } else if (step.axis == XPathAxis::kChild) {
        matches = StructuralTopLevel(*list, &read_);
      } else if (step.predicates.empty()) {
        whole = list.get();
        root = false;
        continue;
      } else {
        matches = SelectAll(*list, &read_);
      }
      whole = nullptr;
      skip = 0;
      frontier = Number(step, root ? nullptr : &context, std::move(matches),
                        &read_);
      root = false;
      for (const XPathPredicate& pred : step.predicates) {
        if (pred.kind == XPathPredicate::Kind::kPosition) continue;
        LAXML_ASSIGN_OR_RETURN(frontier, Filter(frontier, pred));
      }
    }
    return whole != nullptr ? SelectAll(*whole, &read_) : frontier;
  }

 private:
  /// The `frontier` entries passing [p] or [p='lit'] `pred`.
  Result<StructuralSelection> Filter(const StructuralSelection& frontier,
                                     const XPathPredicate& pred) {
    const XPathPath& p = pred.path;
    const EntryList* lists = &plan_.lists[next_];
    next_ += p.steps.size();
    if (frontier.empty()) return StructuralSelection{};
    const size_t last = p.steps.size() - 1;
    // What the semi-joins below read: the last step's list, or the
    // selection `kept` from it.
    StructuralSelection kept;
    StructuralSpan below = *lists[last];
    if (pred.kind == XPathPredicate::Kind::kEquals) {
      // The nodes the path reaches from the frontier, kept when their
      // value is the literal.
      StructuralSelection reached;
      StructuralSpan from = frontier;
      uint32_t skip = 0;
      for (size_t j = 0; j <= last; ++j) {
        if (lists[j] == nullptr) {
          ++skip;
          continue;
        }
        reached = AxisJoin(from, *lists[j], p.steps[j], skip, &read_);
        from = reached;
        skip = 0;
      }
      const bool attribute = p.steps[last].axis == XPathAxis::kAttribute;
      const uint64_t key = StructuralValueKey(pred.literal);
      for (const StructuralEntry* e : reached) {
        bool match = false;
        if (e->mixed()) {
          LAXML_ASSIGN_OR_RETURN(match, StringValueEquals(*e, pred.literal));
        } else if (e->value_key == key) {
          // Equal inline keys are equal values; equal hashes may not be.
          match = ExactValueKey(key);
          if (!match) {
            LAXML_ASSIGN_OR_RETURN(match,
                                   ValueEquals(*e, attribute, pred.literal));
          }
        }
        if (match) kept.push_back(e);
      }
      below = kept;
    }
    // Right to left: keep each step's entries that hold a match of the
    // step after them, and last the frontier entries holding one of the
    // path's first step.
    size_t next = last;
    uint32_t skip = 0;
    for (size_t j = last; j-- > 0;) {
      if (lists[j] == nullptr) {
        ++skip;
        continue;
      }
      kept = StructuralSemiJoin(*lists[j], below,
                                p.steps[next].axis != XPathAxis::kDescendant,
                                skip, &read_);
      below = kept;
      next = j;
      skip = 0;
    }
    return StructuralSemiJoin(frontier, below,
                              p.steps[next].axis != XPathAxis::kDescendant,
                              skip, &read_);
  }

  /// Whether the value of `e`, an attribute or a simple element whose
  /// hashed key equals the literal's, is `literal`: read in place, on
  /// the attribute's begin token or the text leaf's one text token.
  Result<bool> ValueEquals(const StructuralEntry& e, bool attribute,
                           const std::string& literal) {
    TokenCursor* cursor = Cursor();
    LAXML_RETURN_IF_ERROR(cursor->Seek(
        e, attribute ? TokenType::kBeginAttribute : TokenType::kBeginElement));
    if (!attribute) {
      // Past the element's attributes, to its text.
      while (cursor->Valid() && cursor->ordinal() < e.text_ordinal()) {
        LAXML_RETURN_IF_ERROR(cursor->Next());
      }
      if (!cursor->Valid() || cursor->type() != TokenType::kText) {
        return Disagrees();
      }
    }
    return cursor->value_view() == literal;
  }

  /// Whether mixed element `e`'s string value — its descendant text in
  /// document order — is `literal`: a walk over its subtree that stops
  /// at the first text that diverges.
  Result<bool> StringValueEquals(const StructuralEntry& e,
                                 const std::string& literal) {
    TokenCursor* cursor = Cursor();
    LAXML_RETURN_IF_ERROR(cursor->Seek(e));
    size_t matched = 0;
    while (true) {
      LAXML_RETURN_IF_ERROR(cursor->Next());
      if (!cursor->Valid()) return Disagrees();
      if (cursor->ordinal() >= e.post) break;
      if (cursor->type() == TokenType::kText &&
          !ExtendMatch(literal, cursor->value_view(), &matched)) {
        return false;
      }
    }
    if (cursor->ordinal() != e.post) return Disagrees();
    return matched == literal.size();
  }

  TokenCursor* Cursor() {
    if (cursor_ == nullptr) cursor_ = store_.NewCursor();
    return cursor_.get();
  }

  const Store& store_;
  const XPathAccessPlan& plan_;
  size_t next_ = 0;                      ///< The next list to join.
  uint64_t read_ = 0;                    ///< Postings visited.
  std::unique_ptr<TokenCursor> cursor_;  ///< Reads values.
};

/// The text children of `parents` (sorted by pre), in document order.
/// A text leaf's one is located by arithmetic and an empty element has
/// none, so neither reads a token; a mixed element's are found by a walk
/// over its children that skips their subtrees. Only mixed parents can
/// nest, and their texts interleave, hence the sort.
Result<std::vector<NodeId>> TextChildren(
    const Store& store, const StructuralSelection& parents) {
  std::vector<std::pair<uint64_t, NodeId>> texts;  // (ordinal, id)
  bool ordered = true;
  auto add = [&](uint64_t ordinal, NodeId id) {
    ordered = ordered && (texts.empty() || texts.back().first < ordinal);
    texts.emplace_back(ordinal, id);
  };
  std::unique_ptr<TokenCursor> cursor;
  for (const StructuralEntry* parent : parents) {
    const StructuralEntry& e = *parent;
    if (!e.mixed()) {
      if (e.text_leaf()) add(e.text_ordinal(), e.text_id());
      continue;
    }
    if (cursor == nullptr) cursor = store.NewCursor();
    LAXML_RETURN_IF_ERROR(cursor->Seek(e));
    LAXML_RETURN_IF_ERROR(cursor->Next());
    while (cursor->Valid() && cursor->ordinal() < e.post) {
      if (cursor->type() == TokenType::kText) {
        add(cursor->ordinal(), cursor->node_id());
      } else if (TokenOpensScope(cursor->type())) {
        LAXML_RETURN_IF_ERROR(cursor->SkipSubtree());
      }
      LAXML_RETURN_IF_ERROR(cursor->Next());
    }
    if (!cursor->Valid() || cursor->ordinal() != e.post) return Disagrees();
  }
  if (!ordered) std::sort(texts.begin(), texts.end());
  std::vector<NodeId> ids;
  ids.reserve(texts.size());
  for (const auto& text : texts) ids.push_back(text.second);
  return ids;
}

}  // namespace

const char* StructuralIneligibilityReason(const XPathPath& path) {
  if (path.steps.empty()) return "empty path";
  for (size_t i = 0; i < path.steps.size(); ++i) {
    if (const char* reason = StepIneligibility(path, i)) return reason;
  }
  return nullptr;
}

const char* XPathAccessPlan::label() const {
  return entries.has_value() ? "structural-join" : "stream-scan";
}

Result<XPathAccessPlan> PlanXPath(const Store& store, const XPathPath& path,
                                  bool allow_structural_index) {
  if (path.steps.empty()) return Status::InvalidArgument("empty path");
  const size_t steps = CountSteps(path);
  if (steps > kMaxStreamSteps) return TooManySteps();
  XPathAccessPlan plan;
  const StructuralIndex& index = *store.structural_index();
  if (!allow_structural_index ||
      StructuralIneligibilityReason(path) != nullptr) {
    return plan;
  }
  // Every tag is looked up, even after a cold one, so EXPLAIN can show
  // each step's warmth; one cold tag sends the query to the full scan.
  // The summary step's lookup keeps its partitions, from the same
  // publish as its list.
  const size_t summary_step = SummaryStep(path);
  const XPathStep* summary_at =
      summary_step == kNoSummary ? nullptr : &path.steps[summary_step];
  StructuralIndex::TagPostings summary;
  plan.lists.reserve(steps);
  bool warm = true;
  ForEachJoinStep(path, [&](const XPathStep& step) {
    if (!HasPostings(step)) {
      plan.lists.emplace_back();
      return;
    }
    StructuralIndex::TagPostings postings =
        index.LookupPostings(StructuralKey(step));
    warm = warm && postings.list != nullptr;
    if (&step == summary_at) summary = postings;
    plan.lists.push_back(std::move(postings.list));
  });
  if (!warm) return plan;
  if (summary_at != nullptr &&
      SummaryAnswer(path, summary_step, summary, &plan)) {
    return plan;
  }
  PostingJoin join(store, plan);
  LAXML_ASSIGN_OR_RETURN(plan.entries, join.Run(path));
  plan.postings_read = join.postings_read();
  return plan;
}

Result<std::vector<NodeId>> RunXPathPlan(const Store& store,
                                         const XPathPath& path,
                                         const XPathAccessPlan& plan) {
  LAXML_RC_SET_PLAN(plan.label());
  StructuralIndex* index = store.structural_index();
  if (plan.entries.has_value()) {
    index->RecordHit();
    LAXML_RC_ADD(structural_index_hits, 1);
    LAXML_RC_ADD(postings_read, plan.postings_read);
    if (path.steps.back().test == NodeTestKind::kText) {
      return TextChildren(store, *plan.entries);
    }
    std::vector<NodeId> ids;
    ids.reserve(plan.entries->size());
    for (const StructuralEntry* e : *plan.entries) ids.push_back(e->id);
    return ids;
  }
  std::unique_ptr<StructuralWarmer> warmer;
  if (!plan.lists.empty()) {
    // Cold: the full scan below is the fallback, and its by-product
    // warms the join's tags, its predicate paths' included.
    index->RecordMiss();
    LAXML_RC_ADD(structural_index_misses, 1);
    std::vector<std::string> wanted;
    ForEachJoinStep(path, [&](const XPathStep& step) {
      if (HasPostings(step)) wanted.push_back(StructuralKey(step));
    });
    warmer = std::make_unique<StructuralWarmer>(
        store.name_dictionary(), std::move(wanted), /*track_all=*/false);
  }
  StreamScan scan;
  scan.Init(store, path);
  auto cursor = store.NewCursor();
  LAXML_RETURN_IF_ERROR(scan.Run(cursor.get(), warmer.get()));
  if (warmer != nullptr) warmer->Publish(index);
  return scan.TakeResults();
}

Result<std::vector<NodeId>> EvaluateXPathStreaming(
    const Store& store, const XPathPath& path, bool allow_structural_index) {
  LAXML_ASSIGN_OR_RETURN(XPathAccessPlan plan,
                         PlanXPath(store, path, allow_structural_index));
  return RunXPathPlan(store, path, plan);
}

Result<std::vector<NodeId>> EvaluateXPathStreaming(const Store& store,
                                                   std::string_view expr) {
  LAXML_ASSIGN_OR_RETURN(XPathPath path, ParseXPath(expr));
  return EvaluateXPathStreaming(store, path);
}

}  // namespace laxml
