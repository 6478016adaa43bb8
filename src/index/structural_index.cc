#include "index/structural_index.h"

#include <utility>

#include "store/cursor.h"

namespace laxml {

StructuralIndex::EntryList StructuralIndex::LookupTag(
    const std::string& tag) const {
  ReaderMutexLock lk(mu_);
  auto it = tags_.find(tag);
  if (it == tags_.end()) return nullptr;
  return it->second.entries;
}

void StructuralIndex::Publish(const std::string& tag,
                              std::vector<StructuralEntry> entries) {
  TagList list;
  for (const StructuralEntry& e : entries) list.ranges.insert(e.range);
  const size_t added = entries.size();
  list.entries = std::make_shared<const std::vector<StructuralEntry>>(
      std::move(entries));
  WriterMutexLock lk(mu_);
  auto [it, inserted] = tags_.try_emplace(tag);
  if (!inserted) memoized_ -= it->second.entries->size();
  it->second = std::move(list);
  memoized_ += added;
}

void StructuralIndex::InvalidateAll() {
  WriterMutexLock lk(mu_);
  if (tags_.empty()) return;
  stats_.invalidations += memoized_;
  tags_.clear();
  memoized_ = 0;
}

void StructuralIndex::InvalidateRange(RangeId range) {
  WriterMutexLock lk(mu_);
  for (auto it = tags_.begin(); it != tags_.end();) {
    if (it->second.ranges.count(range) != 0) {
      stats_.invalidations += it->second.entries->size();
      memoized_ -= it->second.entries->size();
      it = tags_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t StructuralIndex::memoized_nodes() const {
  ReaderMutexLock lk(mu_);
  return memoized_;
}

size_t StructuralIndex::warmed_tags() const {
  ReaderMutexLock lk(mu_);
  return tags_.size();
}

void StructuralIndex::ResetStats() {
  stats_.hits = 0;
  stats_.misses = 0;
  stats_.invalidations = 0;
}

uint64_t StructuralValueKey(std::string_view value) {
  if (value.size() <= 7) {
    uint64_t key = uint64_t{value.size()} << 56;
    for (size_t i = 0; i < value.size(); ++i) {
      key |= uint64_t{static_cast<uint8_t>(value[i])} << (8 * i);
    }
    return key;
  }
  // FNV-1a, cut to 56 bits under the 0xFF tag.
  uint64_t hash = 14695981039346656037ull;
  for (char c : value) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return (uint64_t{0xFF} << 56) | (hash & ((uint64_t{1} << 56) - 1));
}

// ---------------------------------------------------------------------------
// Warmer

StructuralWarmer::StructuralWarmer(const NameDictionary* dict,
                                   std::vector<std::string> wanted,
                                   bool track_all)
    : dict_(dict), track_all_(track_all) {
  for (const std::string& tag : wanted) {
    const Kind kind = !tag.empty() && tag[0] == '@' ? kAttribute : kElement;
    const std::string name = tag.substr(kind == kAttribute ? 1 : 0);
    if (names_[kind].by_name.count(name) == 0) AddTag(kind, name);
  }
}

uint32_t StructuralWarmer::AddTag(Kind kind, const std::string& name) {
  const uint32_t index = static_cast<uint32_t>(collected_.size());
  collected_.push_back(
      TagEntries{kind == kAttribute ? AttributeKey(name) : name, {}});
  Names& names = names_[kind];
  names.by_name.emplace(name, index);
  const uint32_t symbol =
      dict_ != nullptr ? dict_->Find(name) : kNoNameSymbol;
  if (symbol != kNoNameSymbol) {
    if (symbol >= names.by_symbol.size()) {
      names.by_symbol.resize(symbol + 1, kUntracked);
    }
    names.by_symbol[symbol] = index;
  }
  return index;
}

uint32_t StructuralWarmer::TagOf(const TokenCursor& cursor, Kind kind) {
  const Names& names = names_[kind];
  const uint32_t symbol = cursor.name_symbol();
  if (symbol != kNoNameSymbol) {
    if (symbol < names.by_symbol.size() &&
        names.by_symbol[symbol] != kUntracked) {
      return names.by_symbol[symbol];
    }
    // Wanted tags were mapped to their symbols up front.
    if (!track_all_) return kUntracked;
  }
  // A v1 or inline-coded name, or a symbol seen for the first time.
  const std::string& name = cursor.token().name;
  auto it = names.by_name.find(name);
  if (it != names.by_name.end()) return it->second;
  return track_all_ ? AddTag(kind, name) : kUntracked;
}

void StructuralWarmer::OnChild(const TokenCursor& cursor, TokenType type,
                               OpenScope* scope) {
  if (scope->shape == Shape::kOther) return;
  StructuralEntry& entry = collected_[scope->tag].entries[scope->entry];
  if (scope->shape == Shape::kEmpty) {
    if (type == TokenType::kBeginAttribute) {
      ++scope->text_id;
      return;
    }
    if (type == TokenType::kText && cursor.node_id() == scope->text_id) {
      scope->shape = Shape::kTextLeaf;
      entry.value_key = StructuralValueKey(cursor.value_view());
      return;
    }
  }
  scope->shape = Shape::kOther;
  entry.value_key = kMixedValueKey;
}

void StructuralWarmer::OnToken(const TokenCursor& cursor) {
  const TokenType type = cursor.type();
  if (TokenBeginsNode(type) && !open_.empty()) {
    OnChild(cursor, type, &open_.back());
  }
  if (type == TokenType::kBeginElement ||
      type == TokenType::kBeginAttribute) {
    const bool attribute = type == TokenType::kBeginAttribute;
    const uint32_t tag = TagOf(cursor, attribute ? kAttribute : kElement);
    if (tag != kUntracked) {
      if (cursor.depth() < 0) {
        broken_ = true;
        return;
      }
      std::vector<StructuralEntry>& list = collected_[tag].entries;
      StructuralEntry entry;
      entry.id = cursor.node_id();
      entry.pre = cursor.ordinal();
      entry.post = entry.pre;  // provisional; fixed when the scope closes
      entry.parent_pre = open_.empty() ? kNoParent : open_.back().pre;
      entry.level = static_cast<uint32_t>(cursor.depth());
      entry.range = cursor.range();
      entry.offset = cursor.byte_offset();
      // An element starts empty; its children may change that.
      entry.value_key =
          StructuralValueKey(attribute ? cursor.value_view() : "");
      open_.push_back({tag, static_cast<uint32_t>(list.size()), entry.pre,
                       attribute ? Shape::kOther : Shape::kEmpty,
                       entry.id + 1});
      list.push_back(entry);
      return;
    }
  }
  if (TokenOpensScope(type)) {
    open_.push_back({kUntracked, 0, cursor.ordinal(), Shape::kOther, 0});
    return;
  }
  if (TokenClosesScope(type)) {
    if (open_.empty()) {
      broken_ = true;
      return;
    }
    const OpenScope scope = open_.back();
    open_.pop_back();
    if (scope.tag != kUntracked) {
      collected_[scope.tag].entries[scope.entry].post = cursor.ordinal();
    }
  }
}

void StructuralWarmer::Publish(StructuralIndex* index) {
  if (!complete()) return;
  // Wanted tags with zero matches publish as empty lists: "no such
  // element" is a cached fact too.
  for (TagEntries& tag : collected_) {
    index->Publish(tag.tag, std::move(tag.entries));
  }
  collected_.clear();
}

// ---------------------------------------------------------------------------
// Joins

namespace {

using Stack = std::vector<const StructuralEntry*>;

/// The stack-tree merge behind every join. Walks the candidates in pre
/// order, pushing every frontier entry that begins before the candidate
/// and popping every one that ended before it, so the stack holds
/// exactly the frontier intervals containing the candidate (well-nested
/// intervals: each contains the one above it, and sits at a deeper
/// level). `visit` sees each contained candidate and that stack, with
/// entries read in place.
template <typename Visit>
void StackJoin(const std::vector<StructuralEntry>& frontier,
               const std::vector<StructuralEntry>& candidates, Visit visit) {
  if (frontier.empty() || candidates.empty()) return;
  Stack stack;
  size_t next = 0;
  for (const StructuralEntry& c : candidates) {
    for (; next < frontier.size() && frontier[next].pre < c.pre; ++next) {
      const StructuralEntry& f = frontier[next];
      while (!stack.empty() && stack.back()->post < f.pre) stack.pop_back();
      stack.push_back(&f);
    }
    while (!stack.empty() && stack.back()->post < c.pre) stack.pop_back();
    if (!stack.empty() && c.post < stack.back()->post) visit(c, stack);
  }
}

/// The candidates `keep` accepts, copied in order.
template <typename Keep>
std::vector<StructuralEntry> FilterJoin(
    const std::vector<StructuralEntry>& frontier,
    const std::vector<StructuralEntry>& candidates, Keep keep) {
  std::vector<StructuralEntry> out;
  StackJoin(frontier, candidates,
            [&](const StructuralEntry& c, const Stack& stack) {
              if (keep(c, stack)) out.push_back(c);
            });
  return out;
}

/// The stack entry exactly `skip + 1` levels above `c`, or nullptr.
/// Levels fall from the top of the stack down: walk it until the
/// required level is reached or passed.
const StructuralEntry* AncestorAt(const StructuralEntry& c,
                                  const Stack& stack, uint32_t skip) {
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    const uint32_t reach = (*it)->level + skip + 1;
    if (reach <= c.level) return reach == c.level ? *it : nullptr;
  }
  return nullptr;
}

}  // namespace

std::vector<StructuralEntry> StructuralTopLevel(
    const std::vector<StructuralEntry>& candidates) {
  std::vector<StructuralEntry> out;
  for (const StructuralEntry& c : candidates) {
    if (c.level == 0) out.push_back(c);
  }
  return out;
}

std::vector<StructuralEntry> StructuralDescendantJoin(
    const std::vector<StructuralEntry>& frontier,
    const std::vector<StructuralEntry>& candidates, uint32_t skip) {
  // The outermost containing frontier interval sits highest.
  return FilterJoin(frontier, candidates,
                    [skip](const StructuralEntry& c, const Stack& stack) {
                      return stack.front()->level + skip < c.level;
                    });
}

std::vector<StructuralEntry> StructuralChildJoin(
    const std::vector<StructuralEntry>& frontier,
    const std::vector<StructuralEntry>& candidates, uint32_t skip) {
  return FilterJoin(frontier, candidates,
                    [skip](const StructuralEntry& c, const Stack& stack) {
                      return AncestorAt(c, stack, skip) != nullptr;
                    });
}

std::vector<StructuralEntry> StructuralSemiJoin(
    const std::vector<StructuralEntry>& frontier,
    const std::vector<StructuralEntry>& candidates, bool child,
    uint32_t skip) {
  std::vector<bool> marked(frontier.size(), false);
  auto mark = [&](const StructuralEntry* f) {
    marked[static_cast<size_t>(f - frontier.data())] = true;
  };
  StackJoin(frontier, candidates,
            [&](const StructuralEntry& c, const Stack& stack) {
              if (child) {
                if (const StructuralEntry* f = AncestorAt(c, stack, skip)) {
                  mark(f);
                }
                return;
              }
              // Every containing interval far enough up qualifies.
              for (const StructuralEntry* f : stack) {
                if (f->level + skip >= c.level) break;
                mark(f);
              }
            });
  std::vector<StructuralEntry> out;
  for (size_t i = 0; i < frontier.size(); ++i) {
    if (marked[i]) out.push_back(frontier[i]);
  }
  return out;
}

std::vector<StructuralEntry> StructuralNthPerParent(
    const std::vector<StructuralEntry>& candidates, uint64_t n) {
  // Parent keys order the virtual root (kNoParent) before every element.
  auto parent_key = [](const StructuralEntry& c) {
    return c.parent_pre == kNoParent ? 0 : c.parent_pre + 1;
  };
  struct Seen {
    uint64_t parent;
    uint64_t count;
  };
  std::vector<Seen> open;
  std::vector<StructuralEntry> out;
  for (const StructuralEntry& c : candidates) {
    const uint64_t parent = parent_key(c);
    while (!open.empty() && open.back().parent > parent) open.pop_back();
    if (open.empty() || open.back().parent != parent) {
      open.push_back({parent, 0});
    }
    if (++open.back().count == n) out.push_back(c);
  }
  return out;
}

std::vector<StructuralEntry> StructuralNthDescendant(
    const std::vector<StructuralEntry>& frontier,
    const std::vector<StructuralEntry>& candidates, uint64_t n) {
  std::vector<uint64_t> counts(frontier.size(), 0);
  return FilterJoin(frontier, candidates,
                    [&](const StructuralEntry&, const Stack& stack) {
                      bool nth = false;
                      for (const StructuralEntry* f : stack) {
                        nth = ++counts[static_cast<size_t>(
                                  f - frontier.data())] == n ||
                              nth;
                      }
                      return nth;
                    });
}

}  // namespace laxml
