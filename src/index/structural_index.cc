#include "index/structural_index.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "store/cursor.h"

namespace laxml {

StructuralIndex::StructuralIndex() {
  labels_.push_back(std::make_unique<LabelPath>());  // the virtual root
}

std::string LabelPath::ToString() const {
  if (parent == nullptr) return "";
  return parent->ToString() + (attribute ? "/@" : "/") + name;
}

StructuralIndex::EntryList StructuralIndex::LookupTag(
    const std::string& tag) const {
  return LookupPostings(tag).list;
}

StructuralIndex::TagPostings StructuralIndex::LookupPostings(
    const std::string& tag) const {
  ReaderMutexLock lk(mu_);
  auto it = tags_.find(tag);
  if (it == tags_.end()) return {};
  const std::shared_ptr<const Postings>& postings = it->second.postings;
  // The list shares ownership of the whole publish, partitions included.
  return {EntryList(postings, &postings->entries), &postings->partitions};
}

void StructuralIndex::Publish(const std::string& tag,
                              std::vector<StructuralEntry> entries,
                              std::vector<uint32_t> paths) {
  LAXML_CHECK(paths.empty() || paths.size() == entries.size());
  TagList list;
  for (const StructuralEntry& e : entries) list.ranges.insert(e.range);
  const size_t added = entries.size();
  auto postings = std::make_shared<Postings>();
  postings->entries = std::move(entries);
  // Each entry's partition, in order of first appearance (a tag has a
  // handful, and neighbours mostly share one), each named by its id
  // until the trie is locked.
  std::vector<uint32_t> part_ids;
  std::vector<size_t> sizes;
  std::vector<uint32_t> part_of(paths.size());
  uint32_t part = 0;
  for (size_t i = 0; i < paths.size(); ++i) {
    if (part_ids.empty() || part_ids[part] != paths[i]) {
      part = static_cast<uint32_t>(
          std::find(part_ids.begin(), part_ids.end(), paths[i]) -
          part_ids.begin());
      if (part == part_ids.size()) {
        part_ids.push_back(paths[i]);
        sizes.push_back(0);
      }
    }
    part_of[i] = part;
    ++sizes[part];
  }
  std::vector<PathPartition>& parts = postings->partitions;
  parts.resize(part_ids.size());
  // One label path: the list is the partition, with no selection.
  if (parts.size() > 1) {
    for (size_t p = 0; p < parts.size(); ++p) {
      parts[p].entries.reserve(sizes[p]);
    }
    for (size_t i = 0; i < paths.size(); ++i) {
      parts[part_of[i]].entries.push_back(&postings->entries[i]);
    }
  }
  WriterMutexLock lk(mu_);
  for (size_t p = 0; p < parts.size(); ++p) {
    LAXML_CHECK(part_ids[p] > 0 && part_ids[p] < labels_.size());
    parts[p].path = labels_[part_ids[p]].get();
  }
  list.postings = std::move(postings);
  auto [it, inserted] = tags_.try_emplace(tag);
  if (!inserted) memoized_ -= it->second.postings->entries.size();
  it->second = std::move(list);
  memoized_ += added;
}

std::vector<uint32_t> StructuralIndex::InternLabelPaths(
    const std::vector<LabelStep>& steps) {
  std::vector<uint32_t> ids(steps.size(), 0);  // step 0: the root
  WriterMutexLock lk(mu_);
  for (size_t i = 1; i < steps.size(); ++i) {
    const LabelStep& step = steps[i];
    const uint32_t parent = ids[step.parent];
    std::string key(reinterpret_cast<const char*>(&parent), sizeof(parent));
    key += step.attribute ? '@' : '/';
    key += step.name;
    auto [it, inserted] =
        label_ids_.try_emplace(std::move(key), labels_.size());
    if (inserted) {
      auto label = std::make_unique<LabelPath>();
      label->parent = labels_[parent].get();
      label->attribute = step.attribute;
      label->name = step.name;
      label->id = it->second;
      label->depth = label->parent->depth + 1;
      labels_.push_back(std::move(label));
    }
    ids[i] = it->second;
  }
  return ids;
}

void StructuralIndex::InvalidateAll() {
  WriterMutexLock lk(mu_);
  if (tags_.empty()) return;
  stats_.invalidations += memoized_;
  tags_.clear();  // the trie stays: ids are never renumbered
  memoized_ = 0;
}

void StructuralIndex::InvalidateRange(RangeId range) {
  WriterMutexLock lk(mu_);
  for (auto it = tags_.begin(); it != tags_.end();) {
    if (it->second.ranges.count(range) != 0) {
      stats_.invalidations += it->second.postings->entries.size();
      memoized_ -= it->second.postings->entries.size();
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
    : dict_(dict),
      track_all_(track_all),
      labels_(1),  // the virtual root
      label_children_(1) {
  for (const std::string& tag : wanted) {
    const Kind kind = !tag.empty() && tag[0] == '@' ? kAttribute : kElement;
    const std::string name = tag.substr(kind == kAttribute ? 1 : 0);
    if (names_[kind].by_name.count(name) == 0) AddTag(kind, name);
  }
}

uint32_t StructuralWarmer::AddTag(Kind kind, const std::string& name) {
  const uint32_t index = static_cast<uint32_t>(collected_.size());
  collected_.push_back(
      TagEntries{kind == kAttribute ? AttributeKey(name) : name, {}, {}});
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
  // An inline-coded name, or a symbol seen for the first time.
  const std::string& name = cursor.token().name;
  auto it = names.by_name.find(name);
  if (it != names.by_name.end()) return it->second;
  return track_all_ ? AddTag(kind, name) : kUntracked;
}

uint32_t StructuralWarmer::ChildPath(uint32_t parent, bool attribute,
                                     uint32_t symbol,
                                     const std::string& name) {
  if (symbol != kNoNameSymbol) {
    for (const LabelChild& child : label_children_[parent]) {
      if (child.symbol == symbol && child.attribute == attribute) {
        return child.path;
      }
    }
  }
  // An inline-coded name, or a symbol not yet seen below `parent`.
  uint32_t path = kUntracked;
  for (const LabelChild& child : label_children_[parent]) {
    const LabelStep& label = labels_[child.path];
    if (label.attribute == attribute && label.name == name) {
      path = child.path;
      break;
    }
  }
  if (path == kUntracked) {
    path = static_cast<uint32_t>(labels_.size());
    labels_.push_back({parent, attribute, name});
    label_children_.emplace_back();
  } else if (symbol == kNoNameSymbol) {
    return path;
  }
  label_children_[parent].push_back({symbol, attribute, path});
  return path;
}

uint32_t StructuralWarmer::ParentPath() {
  size_t first = open_.size();  // the outermost unresolved scope
  while (first > 0 && (open_[first - 1].path & kUnresolved) != 0) --first;
  for (size_t k = first; k < open_.size(); ++k) {
    OpenScope& scope = open_[k];
    const uint32_t symbol = (scope.path & ~kUnresolved) >> 1;
    const std::string* name = dict_->NameOf(symbol);
    if (name == nullptr) {
      // A symbol the dictionary does not hold: no label path to give.
      broken_ = true;
      return 0;
    }
    scope.path = ChildPath(k == 0 ? 0 : open_[k - 1].path,
                           (scope.path & 1) != 0, symbol, *name);
  }
  return open_.empty() ? 0 : open_.back().path;
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
    const Kind kind = attribute ? kAttribute : kElement;
    const uint32_t tag = TagOf(cursor, kind);
    const uint32_t symbol = cursor.name_symbol();
    if (tag == kUntracked && symbol < kUnresolved / 2 && dict_ != nullptr) {
      // Resolved only if a tracked entry opens below it.
      open_.push_back({kUntracked, 0, cursor.ordinal(), 0,
                       kUnresolved | symbol << 1 | (attribute ? 1u : 0u),
                       Shape::kOther});
      return;
    }
    const std::string* name =
        symbol != kNoNameSymbol && dict_ != nullptr ? dict_->NameOf(symbol)
                                                    : nullptr;
    const uint32_t path = ChildPath(ParentPath(), attribute, symbol,
                                    name != nullptr ? *name
                                                    : cursor.token().name);
    if (tag == kUntracked) {
      open_.push_back(
          {kUntracked, 0, cursor.ordinal(), 0, path, Shape::kOther});
      return;
    }
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
                     entry.id + 1, path,
                     attribute ? Shape::kOther : Shape::kEmpty});
    list.push_back(entry);
    collected_[tag].paths.push_back(path);
    return;
  }
  if (TokenOpensScope(type)) {
    open_.push_back(
        {kUntracked, 0, cursor.ordinal(), 0, ParentPath(), Shape::kOther});
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
  const std::vector<uint32_t> ids = index->InternLabelPaths(labels_);
  for (TagEntries& tag : collected_) {
    for (uint32_t& path : tag.paths) path = ids[path];
    index->Publish(tag.tag, std::move(tag.entries), std::move(tag.paths));
  }
  collected_.clear();
}

// ---------------------------------------------------------------------------
// Joins

namespace {

/// Random access to a StructuralSpan of one kind. Dispatch picks the
/// kind once per call, so the kernels below index either without a
/// branch per entry.
struct ListAccess {
  const StructuralEntry* entries;
  size_t n;
  size_t size() const { return n; }
  const StructuralEntry& operator[](size_t i) const { return entries[i]; }
};

struct SelectionAccess {
  const StructuralEntry* const* entries;
  size_t n;
  size_t size() const { return n; }
  const StructuralEntry& operator[](size_t i) const { return *entries[i]; }
};

template <typename Fn>
void Dispatch(const StructuralSpan& span, const Fn& fn) {
  if (span.selection() != nullptr) {
    fn(SelectionAccess{span.selection(), span.size()});
  } else {
    fn(ListAccess{span.list(), span.size()});
  }
}

template <typename Fn>
void Dispatch(const StructuralSpan& a, const StructuralSpan& b,
              const Fn& fn) {
  Dispatch(a, [&](const auto& x) {
    Dispatch(b, [&](const auto& y) { fn(x, y); });
  });
}

/// The first index in [lo, hi) whose entry begins at or after `pre`, or
/// hi: a gallop from lo, then a binary search, so a short hop costs a
/// few probes and a long one O(log distance).
template <typename Access>
size_t SeekPre(const Access& a, size_t lo, size_t hi, uint64_t pre) {
  size_t step = 1;
  while (lo + step <= hi && a[lo + step - 1].pre < pre) {
    lo += step;
    step *= 2;
  }
  hi = std::min(hi, lo + step - 1);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (a[mid].pre < pre) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Frontier indexes, innermost interval on top.
using Stack = std::vector<size_t>;

/// The stack-tree merge behind the descendant and '*'-skipping joins.
/// Walks the candidates in pre order, pushing every frontier entry that
/// begins before the candidate and popping every one that ended before
/// it, so the stack holds exactly the frontier intervals containing the
/// candidate (well-nested intervals: each contains the one above it,
/// and sits at a deeper level). `visit(c, stack)` sees each contained
/// candidate. With the stack empty, no candidate up to the next
/// frontier entry's pre can be contained, so the walk seeks past it;
/// with the frontier used up too, it stops. Adds to `*read` the
/// postings it visited: the candidates read and the frontier entries
/// passed, counted where the walk ends rather than per candidate.
template <typename F, typename C, typename Visit>
void StackJoin(const F& frontier, const C& candidates, uint64_t* read,
               Visit visit) {
  Stack stack;
  size_t next = 0;
  size_t skipped = 0;  // candidates the gallops passed
  for (size_t i = 0; i < candidates.size();) {
    const StructuralEntry& c = candidates[i];
    for (; next < frontier.size() && frontier[next].pre < c.pre; ++next) {
      const uint64_t begin = frontier[next].pre;
      while (!stack.empty() && frontier[stack.back()].post < begin) {
        stack.pop_back();
      }
      stack.push_back(next);
    }
    while (!stack.empty() && frontier[stack.back()].post < c.pre) {
      stack.pop_back();
    }
    if (stack.empty()) {
      if (next == frontier.size()) {
        *read += i + 1 - skipped + next;
        return;
      }
      const size_t seek = SeekPre(candidates, i + 1, candidates.size(),
                                  frontier[next].pre + 1);
      skipped += seek - (i + 1);
      i = seek;
      continue;
    }
    if (c.post < frontier[stack.back()].post) visit(c, stack);
    ++i;
  }
  *read += candidates.size() - skipped + next;
}

/// The parent merge behind child steps with no '*' level: each posting
/// records its parent's pre, so a candidate joins the frontier entry
/// whose pre is its parent_pre. One forward pointer walks the frontier
/// as the stack merge does, keeping `reach`, the latest end of the
/// entries begun so far: a candidate inside none of them (`reach` at or
/// before its pre) has no parent there, nor does any candidate before
/// the next frontier entry, so the walk seeks past it, and stops once
/// the frontier is used up. A contained candidate's parent is usually
/// the last entry begun; when frontier entries nested in the parent
/// began before the candidate, it is an earlier one, found by a binary
/// search back. `visit(c, f)` sees each candidate whose parent is
/// frontier entry `f`. Adds the postings visited to `*read`, as
/// StackJoin.
template <typename F, typename C, typename Visit>
void ParentJoin(const F& frontier, const C& candidates, uint64_t* read,
                Visit visit) {
  size_t next = 0;
  uint64_t reach = 0;
  size_t skipped = 0;
  for (size_t i = 0; i < candidates.size();) {
    const StructuralEntry& c = candidates[i];
    for (; next < frontier.size() && frontier[next].pre < c.pre; ++next) {
      reach = std::max(reach, frontier[next].post);
    }
    if (reach <= c.pre) {
      if (next == frontier.size()) {
        *read += i + 1 - skipped + next;
        return;
      }
      const size_t seek = SeekPre(candidates, i + 1, candidates.size(),
                                  frontier[next].pre + 1);
      skipped += seek - (i + 1);
      i = seek;
      continue;
    }
    // The parent began before c: frontier[last] or an earlier entry. A
    // top-level candidate's kNoParent exceeds every pre.
    const size_t last = next - 1;
    if (c.parent_pre == frontier[last].pre) {
      visit(c, last);
    } else if (c.parent_pre < frontier[last].pre) {
      const size_t f = SeekPre(frontier, 0, last, c.parent_pre);
      if (f < last && frontier[f].pre == c.parent_pre) visit(c, f);
    }
    ++i;
  }
  *read += candidates.size() - skipped + next;
}

constexpr size_t kNone = SIZE_MAX;

/// The frontier index on the stack exactly `skip + 1` levels above `c`,
/// or kNone. Levels fall from the top of the stack down: walk it until
/// the required level is reached or passed.
template <typename F>
size_t AncestorAt(const F& frontier, const StructuralEntry& c,
                  const Stack& stack, uint32_t skip) {
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    const uint32_t reach = frontier[*it].level + skip + 1;
    if (reach <= c.level) return reach == c.level ? *it : kNone;
  }
  return kNone;
}

/// Adds a kernel's visited postings to the caller's count, if any.
void AddRead(uint64_t* read, uint64_t n) {
  if (read != nullptr) *read += n;
}

/// The candidates `keep(c, stack)` accepts, in order.
template <typename Keep>
StructuralSelection FilterJoin(const StructuralSpan& frontier,
                               const StructuralSpan& candidates,
                               uint64_t* read, Keep keep) {
  StructuralSelection out;
  out.reserve(candidates.size());
  uint64_t visited = 0;
  Dispatch(frontier, candidates, [&](const auto& f, const auto& c) {
    StackJoin(f, c, &visited, [&](const StructuralEntry& e,
                                  const Stack& stack) {
      if (keep(f, e, stack)) out.push_back(&e);
    });
  });
  AddRead(read, visited);
  return out;
}

}  // namespace

StructuralSelection StructuralTopLevel(
    const std::vector<StructuralEntry>& candidates, uint64_t* read) {
  AddRead(read, candidates.size());
  StructuralSelection out;
  for (const StructuralEntry& c : candidates) {
    if (c.level == 0) out.push_back(&c);
  }
  return out;
}

StructuralSelection StructuralDescendantJoin(const StructuralSpan& frontier,
                                             const StructuralSpan& candidates,
                                             uint32_t skip, uint64_t* read) {
  // The outermost containing frontier interval sits highest.
  return FilterJoin(frontier, candidates, read,
                    [skip](const auto& f, const StructuralEntry& c,
                           const Stack& stack) {
                      return f[stack.front()].level + skip < c.level;
                    });
}

StructuralSelection StructuralChildJoin(const StructuralSpan& frontier,
                                        const StructuralSpan& candidates,
                                        uint32_t skip, uint64_t* read) {
  if (skip > 0) {
    return FilterJoin(frontier, candidates, read,
                      [skip](const auto& f, const StructuralEntry& c,
                             const Stack& stack) {
                        return AncestorAt(f, c, stack, skip) != kNone;
                      });
  }
  StructuralSelection out;
  out.reserve(candidates.size());
  uint64_t visited = 0;
  Dispatch(frontier, candidates, [&](const auto& f, const auto& c) {
    ParentJoin(f, c, &visited, [&](const StructuralEntry& e, size_t) {
      out.push_back(&e);
    });
  });
  AddRead(read, visited);
  return out;
}

StructuralSelection StructuralSemiJoin(const StructuralSpan& frontier,
                                       const StructuralSpan& candidates,
                                       bool child, uint32_t skip,
                                       uint64_t* read) {
  StructuralSelection out;
  out.reserve(frontier.size());
  uint64_t visited = 0;
  Dispatch(frontier, candidates, [&](const auto& f, const auto& c) {
    std::vector<bool> marked(f.size(), false);
    if (child && skip == 0) {
      ParentJoin(f, c, &visited, [&](const StructuralEntry&, size_t i) {
        marked[i] = true;
      });
    } else {
      StackJoin(f, c, &visited, [&](const StructuralEntry& e,
                                    const Stack& stack) {
        if (child) {
          const size_t i = AncestorAt(f, e, stack, skip);
          if (i != kNone) marked[i] = true;
          return;
        }
        // Every containing interval far enough up qualifies.
        for (size_t i : stack) {
          if (f[i].level + skip >= e.level) break;
          marked[i] = true;
        }
      });
    }
    for (size_t i = 0; i < f.size(); ++i) {
      if (marked[i]) out.push_back(&f[i]);
    }
  });
  AddRead(read, visited);
  return out;
}

StructuralSelection StructuralNthPerParent(const StructuralSpan& candidates,
                                           uint64_t n, uint64_t* read) {
  AddRead(read, candidates.size());
  // Parent keys order the virtual root (kNoParent) before every element.
  auto parent_key = [](const StructuralEntry& c) {
    return c.parent_pre == kNoParent ? 0 : c.parent_pre + 1;
  };
  struct Seen {
    uint64_t parent;
    uint64_t count;
  };
  std::vector<Seen> open;
  StructuralSelection out;
  Dispatch(candidates, [&](const auto& cs) {
    for (size_t i = 0; i < cs.size(); ++i) {
      const StructuralEntry& c = cs[i];
      const uint64_t parent = parent_key(c);
      while (!open.empty() && open.back().parent > parent) open.pop_back();
      if (open.empty() || open.back().parent != parent) {
        open.push_back({parent, 0});
      }
      if (++open.back().count == n) out.push_back(&c);
    }
  });
  return out;
}

StructuralSelection StructuralNthDescendant(const StructuralSpan& frontier,
                                            const StructuralSpan& candidates,
                                            uint64_t n, uint64_t* read) {
  std::vector<uint64_t> counts(frontier.size(), 0);
  return FilterJoin(frontier, candidates, read,
                    [&](const auto&, const StructuralEntry&,
                        const Stack& stack) {
                      bool nth = false;
                      for (size_t i : stack) nth = ++counts[i] == n || nth;
                      return nth;
                    });
}

StructuralSelection StructuralMergeRuns(
    const std::vector<const StructuralSelection*>& parts) {
  struct Head {
    const StructuralEntry* const* at;
    size_t left;
  };
  std::vector<Head> heads;
  size_t total = 0;
  for (const StructuralSelection* part : parts) {
    if (!part->empty()) heads.push_back({part->data(), part->size()});
    total += part->size();
  }
  StructuralSelection out;
  out.reserve(total);
  while (heads.size() > 1) {
    size_t low = 0;
    for (size_t i = 1; i < heads.size(); ++i) {
      if ((*heads[i].at)->pre < (*heads[low].at)->pre) low = i;
    }
    uint64_t next_low = UINT64_MAX;
    for (size_t i = 0; i < heads.size(); ++i) {
      if (i != low) next_low = std::min(next_low, (*heads[i].at)->pre);
    }
    // The run: the lowest part's entries below every other head.
    Head& head = heads[low];
    const size_t run =
        SeekPre(SelectionAccess{head.at, head.left}, 1, head.left, next_low);
    out.insert(out.end(), head.at, head.at + run);
    head.at += run;
    head.left -= run;
    if (head.left == 0) heads.erase(heads.begin() + static_cast<long>(low));
  }
  if (!heads.empty()) {
    out.insert(out.end(), heads[0].at, heads[0].at + heads[0].left);
  }
  return out;
}

}  // namespace laxml
