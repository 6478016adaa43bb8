#include "btree/btree.h"

#include <cstring>
#include <unordered_set>

#include "common/check.h"

namespace laxml {

namespace {

// Node payload offsets (see btree.h for the layout story).
constexpr uint32_t kCountOff = 0;
constexpr uint32_t kLevelOff = 2;
constexpr uint32_t kLeafPrevOff = 4;
constexpr uint32_t kLeafNextOff = 8;
constexpr uint32_t kLeafKeysOff = 12;
constexpr uint32_t kInternalKeysOff = 4;

uint16_t NodeCount(const uint8_t* payload) {
  return DecodeFixed16(payload + kCountOff);
}
void SetNodeCount(uint8_t* payload, uint16_t n) {
  EncodeFixed16(payload + kCountOff, n);
}
uint8_t NodeLevel(const uint8_t* payload) { return payload[kLevelOff]; }
void SetNodeLevel(uint8_t* payload, uint8_t level) {
  payload[kLevelOff] = level;
}

}  // namespace

uint32_t BTree::LeafCapacity() const {
  return (pager_->page_size() - kPageHeaderSize - kLeafKeysOff) /
         (8 + value_size_);
}

uint32_t BTree::InternalCapacity() const {
  // cap keys + (cap + 1) children: cap*8 + cap*4 + 4 <= payload - 4.
  return (pager_->page_size() - kPageHeaderSize - kInternalKeysOff - 4) / 12;
}

// Accessor helpers over a node payload. `cap` is the per-tree capacity of
// the relevant node kind.
namespace {

uint64_t LeafKey(const uint8_t* p, uint32_t i) {
  return DecodeFixed64(p + kLeafKeysOff + 8 * i);
}
void SetLeafKey(uint8_t* p, uint32_t i, uint64_t k) {
  EncodeFixed64(p + kLeafKeysOff + 8 * i, k);
}
uint8_t* LeafValue(uint8_t* p, uint32_t cap, uint32_t vs, uint32_t i) {
  return p + kLeafKeysOff + 8 * cap + vs * i;
}
const uint8_t* LeafValue(const uint8_t* p, uint32_t cap, uint32_t vs,
                         uint32_t i) {
  return p + kLeafKeysOff + 8 * cap + vs * i;
}

uint64_t InternalKey(const uint8_t* p, uint32_t i) {
  return DecodeFixed64(p + kInternalKeysOff + 8 * i);
}
void SetInternalKey(uint8_t* p, uint32_t i, uint64_t k) {
  EncodeFixed64(p + kInternalKeysOff + 8 * i, k);
}
uint32_t ChildAt(const uint8_t* p, uint32_t cap, uint32_t i) {
  return DecodeFixed32(p + kInternalKeysOff + 8 * cap + 4 * i);
}
void SetChildAt(uint8_t* p, uint32_t cap, uint32_t i, uint32_t c) {
  EncodeFixed32(p + kInternalKeysOff + 8 * cap + 4 * i, c);
}

/// First index i in [0, n) with keys[i] >= key; n if none.
template <typename KeyFn>
uint32_t LowerBound(uint32_t n, uint64_t key, KeyFn key_at) {
  uint32_t lo = 0, hi = n;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (key_at(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Result<BTree> BTree::Create(Pager* pager, uint32_t value_size) {
  if (value_size == 0 || value_size > 256) {
    return Status::InvalidArgument("btree value size must be in [1, 256]");
  }
  LAXML_ASSIGN_OR_RETURN(PageHandle root, pager->New(PageType::kBTreeLeaf));
  uint8_t* p = root.view().payload();
  SetNodeCount(p, 0);
  SetNodeLevel(p, 0);
  EncodeFixed32(p + kLeafPrevOff, kInvalidPageId);
  EncodeFixed32(p + kLeafNextOff, kInvalidPageId);
  root.MarkDirty();
  BTree tree(pager, root.id(), value_size);
  return tree;
}

Result<BTree> BTree::Open(Pager* pager, PageId root, uint32_t value_size) {
  BTree tree(pager, root, value_size);
  LAXML_RETURN_IF_ERROR(tree.RecountSize());
  return tree;
}

Status BTree::RecountSize() {
  size_ = 0;
  // Walk down the leftmost spine, then across the leaf chain.
  PageId page = root_;
  while (true) {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(page));
    const uint8_t* p = h.view().payload();
    if (NodeLevel(p) == 0) break;
    page = ChildAt(p, InternalCapacity(), 0);
  }
  while (page != kInvalidPageId) {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(page));
    const uint8_t* p = h.view().payload();
    size_ += NodeCount(p);
    page = DecodeFixed32(p + kLeafNextOff);
  }
  return Status::OK();
}

Result<PageHandle> BTree::DescendToLeaf(uint64_t key,
                                        std::vector<PathEntry>* path) const {
  LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(root_));
  while (true) {
    const uint8_t* p = h.view().payload();
    if (NodeLevel(p) == 0) return h;
    uint16_t n = NodeCount(p);
    // Child i holds keys < keys[i]; the child after the last key holds
    // the rest. Follow the first separator strictly greater than key.
    uint32_t idx = LowerBound(
        n, key + 1, [p](uint32_t i) { return InternalKey(p, i); });
    if (path != nullptr) {
      path->push_back({h.id(), static_cast<uint16_t>(idx)});
    }
    PageId child = ChildAt(p, InternalCapacity(), idx);
    h.Release();  // one pin at a time, so a tiny pool cannot run dry
    LAXML_ASSIGN_OR_RETURN(h, pager_->Fetch(child));
  }
}

Result<bool> BTree::Get(uint64_t key, uint8_t* value_out) const {
  LAXML_ASSIGN_OR_RETURN(PageHandle h, DescendToLeaf(key, nullptr));
  const uint8_t* p = h.view().payload();
  uint16_t n = NodeCount(p);
  uint32_t idx =
      LowerBound(n, key, [p](uint32_t i) { return LeafKey(p, i); });
  if (idx >= n || LeafKey(p, idx) != key) return false;
  if (value_out != nullptr) {
    std::memcpy(value_out, LeafValue(p, LeafCapacity(), value_size_, idx),
                value_size_);
  }
  return true;
}

Status BTree::Insert(uint64_t key, Slice value) {
  if (value.size() != value_size_) {
    return Status::InvalidArgument("btree value size mismatch");
  }
  std::vector<PathEntry> path;
  PageId leaf = kInvalidPageId;
  {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, DescendToLeaf(key, &path));
    leaf = h.id();
    uint8_t* p = h.view().payload();
    uint16_t n = NodeCount(p);
    uint32_t cap = LeafCapacity();
    uint32_t idx =
        LowerBound(n, key, [p](uint32_t i) { return LeafKey(p, i); });
    if (idx < n && LeafKey(p, idx) == key) {
      std::memcpy(LeafValue(p, cap, value_size_, idx), value.data(),
                  value_size_);
      h.MarkDirty();
      return Status::OK();
    }
    if (n < cap) {
      // Shift keys and values right by one.
      std::memmove(p + kLeafKeysOff + 8 * (idx + 1),
                   p + kLeafKeysOff + 8 * idx, 8 * (n - idx));
      std::memmove(LeafValue(p, cap, value_size_, idx + 1),
                   LeafValue(p, cap, value_size_, idx),
                   value_size_ * (n - idx));
      SetLeafKey(p, idx, key);
      std::memcpy(LeafValue(p, cap, value_size_, idx), value.data(),
                  value_size_);
      SetNodeCount(p, static_cast<uint16_t>(n + 1));
      h.MarkDirty();
      ++size_;
      return Status::OK();
    }
  }
  // Leaf full: split, then retry the insert (one split always makes
  // room on the proper side).
  LAXML_RETURN_IF_ERROR(SplitLeaf(leaf, &path));
  return Insert(key, value);
}

Status BTree::SplitLeaf(PageId leaf_id, std::vector<PathEntry>* path) {
  uint32_t cap = LeafCapacity();
  LAXML_ASSIGN_OR_RETURN(PageHandle right_h,
                         pager_->New(PageType::kBTreeLeaf));
  PageId right_id = right_h.id();
  uint64_t sep_key;
  PageId old_next;
  {
    LAXML_ASSIGN_OR_RETURN(PageHandle left_h, pager_->Fetch(leaf_id));
    uint8_t* lp = left_h.view().payload();
    uint8_t* rp = right_h.view().payload();
    uint16_t n = NodeCount(lp);
    uint16_t half = n / 2;
    uint16_t moved = static_cast<uint16_t>(n - half);
    SetNodeLevel(rp, 0);
    SetNodeCount(rp, moved);
    std::memcpy(rp + kLeafKeysOff, lp + kLeafKeysOff + 8 * half, 8 * moved);
    std::memcpy(LeafValue(rp, cap, value_size_, 0),
                LeafValue(lp, cap, value_size_, half), value_size_ * moved);
    SetNodeCount(lp, half);
    // Link: left <-> right <-> old_next.
    old_next = DecodeFixed32(lp + kLeafNextOff);
    EncodeFixed32(lp + kLeafNextOff, right_id);
    EncodeFixed32(rp + kLeafPrevOff, leaf_id);
    EncodeFixed32(rp + kLeafNextOff, old_next);
    sep_key = LeafKey(rp, 0);
    left_h.MarkDirty();
    right_h.MarkDirty();
  }
  if (old_next != kInvalidPageId) {
    LAXML_ASSIGN_OR_RETURN(PageHandle next_h, pager_->Fetch(old_next));
    EncodeFixed32(next_h.view().payload() + kLeafPrevOff, right_id);
    next_h.MarkDirty();
  }
  return InsertIntoParent(path, sep_key, right_id);
}

Status BTree::InsertIntoParent(std::vector<PathEntry>* path,
                               uint64_t sep_key, PageId new_child) {
  uint32_t cap = InternalCapacity();
  while (true) {
    if (path->empty()) {
      // Split reached the root: grow the tree by one level.
      PageId old_root = root_;
      uint8_t old_level;
      {
        LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(old_root));
        old_level = NodeLevel(h.view().payload());
      }
      LAXML_ASSIGN_OR_RETURN(PageHandle root_h,
                             pager_->New(PageType::kBTreeInternal));
      uint8_t* p = root_h.view().payload();
      SetNodeLevel(p, static_cast<uint8_t>(old_level + 1));
      SetNodeCount(p, 1);
      SetInternalKey(p, 0, sep_key);
      SetChildAt(p, cap, 0, old_root);
      SetChildAt(p, cap, 1, new_child);
      root_h.MarkDirty();
      root_ = root_h.id();
      return Status::OK();
    }
    PathEntry entry = path->back();
    path->pop_back();
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(entry.page));
    uint8_t* p = h.view().payload();
    uint16_t n = NodeCount(p);
    if (n < cap) {
      uint32_t idx = entry.child_idx;
      // Insert sep_key at idx, new_child at idx + 1.
      std::memmove(p + kInternalKeysOff + 8 * (idx + 1),
                   p + kInternalKeysOff + 8 * idx, 8 * (n - idx));
      std::memmove(p + kInternalKeysOff + 8 * cap + 4 * (idx + 2),
                   p + kInternalKeysOff + 8 * cap + 4 * (idx + 1),
                   4 * (n - idx));
      SetInternalKey(p, idx, sep_key);
      SetChildAt(p, cap, idx + 1, new_child);
      SetNodeCount(p, static_cast<uint16_t>(n + 1));
      h.MarkDirty();
      return Status::OK();
    }
    // Split this internal node. Middle key moves up.
    LAXML_ASSIGN_OR_RETURN(PageHandle right_h,
                           pager_->New(PageType::kBTreeInternal));
    uint8_t* rp = right_h.view().payload();
    uint16_t mid = n / 2;
    uint64_t up_key = InternalKey(p, mid);
    uint16_t right_n = static_cast<uint16_t>(n - mid - 1);
    SetNodeLevel(rp, NodeLevel(p));
    SetNodeCount(rp, right_n);
    std::memcpy(rp + kInternalKeysOff, p + kInternalKeysOff + 8 * (mid + 1),
                8 * right_n);
    std::memcpy(rp + kInternalKeysOff + 8 * cap,
                p + kInternalKeysOff + 8 * cap + 4 * (mid + 1),
                4 * (right_n + 1));
    SetNodeCount(p, mid);
    h.MarkDirty();
    right_h.MarkDirty();
    // Route the pending (sep_key, new_child) into the proper half.
    PageId left_id = entry.page;
    PageId right_id = right_h.id();
    h.Release();
    right_h.Release();
    {
      PageId target;
      uint32_t idx = entry.child_idx;
      uint32_t tgt_idx;
      if (idx <= mid) {
        target = left_id;
        tgt_idx = idx;
      } else {
        target = right_id;
        tgt_idx = idx - (mid + 1);
      }
      LAXML_ASSIGN_OR_RETURN(PageHandle th, pager_->Fetch(target));
      uint8_t* tp = th.view().payload();
      uint16_t tn = NodeCount(tp);
      std::memmove(tp + kInternalKeysOff + 8 * (tgt_idx + 1),
                   tp + kInternalKeysOff + 8 * tgt_idx, 8 * (tn - tgt_idx));
      std::memmove(tp + kInternalKeysOff + 8 * cap + 4 * (tgt_idx + 2),
                   tp + kInternalKeysOff + 8 * cap + 4 * (tgt_idx + 1),
                   4 * (tn - tgt_idx));
      SetInternalKey(tp, tgt_idx, sep_key);
      SetChildAt(tp, cap, tgt_idx + 1, new_child);
      SetNodeCount(tp, static_cast<uint16_t>(tn + 1));
      th.MarkDirty();
    }
    // Continue up with the promoted key.
    sep_key = up_key;
    new_child = right_id;
  }
}

Status BTree::Delete(uint64_t key) {
  std::vector<PathEntry> path;
  PageId leaf = kInvalidPageId;
  bool now_empty = false;
  {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, DescendToLeaf(key, &path));
    leaf = h.id();
    uint8_t* p = h.view().payload();
    uint16_t n = NodeCount(p);
    uint32_t cap = LeafCapacity();
    uint32_t idx =
        LowerBound(n, key, [p](uint32_t i) { return LeafKey(p, i); });
    if (idx >= n || LeafKey(p, idx) != key) {
      return Status::NotFound("key not in btree");
    }
    std::memmove(p + kLeafKeysOff + 8 * idx,
                 p + kLeafKeysOff + 8 * (idx + 1), 8 * (n - idx - 1));
    std::memmove(LeafValue(p, cap, value_size_, idx),
                 LeafValue(p, cap, value_size_, idx + 1),
                 value_size_ * (n - idx - 1));
    SetNodeCount(p, static_cast<uint16_t>(n - 1));
    h.MarkDirty();
    now_empty = (n - 1 == 0);
  }
  --size_;
  if (now_empty && leaf != root_) {
    LAXML_RETURN_IF_ERROR(RemoveLeaf(leaf, &path));
  }
  return Status::OK();
}

Status BTree::RemoveLeaf(PageId leaf_id, std::vector<PathEntry>* path) {
  // Unlink from the doubly-linked leaf chain.
  PageId prev, next;
  {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(leaf_id));
    const uint8_t* p = h.view().payload();
    prev = DecodeFixed32(p + kLeafPrevOff);
    next = DecodeFixed32(p + kLeafNextOff);
  }
  if (prev != kInvalidPageId) {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(prev));
    EncodeFixed32(h.view().payload() + kLeafNextOff, next);
    h.MarkDirty();
  }
  if (next != kInvalidPageId) {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(next));
    EncodeFixed32(h.view().payload() + kLeafPrevOff, prev);
    h.MarkDirty();
  }
  LAXML_RETURN_IF_ERROR(pager_->FreePage(leaf_id));

  // Remove the child pointer from ancestors, collapsing nodes that are
  // left with a single child.
  uint32_t cap = InternalCapacity();
  PageId dead_child = leaf_id;
  while (!path->empty()) {
    PathEntry entry = path->back();
    path->pop_back();
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(entry.page));
    uint8_t* p = h.view().payload();
    uint16_t n = NodeCount(p);
    uint32_t idx = entry.child_idx;
    LAXML_DCHECK(ChildAt(p, cap, idx) == dead_child)
        << "parent child slot does not point at the removed leaf";
    // Removing child idx removes key idx-1 (or key 0 when idx == 0).
    uint32_t key_idx = (idx == 0) ? 0 : idx - 1;
    std::memmove(p + kInternalKeysOff + 8 * key_idx,
                 p + kInternalKeysOff + 8 * (key_idx + 1),
                 8 * (n - key_idx - 1));
    std::memmove(p + kInternalKeysOff + 8 * cap + 4 * idx,
                 p + kInternalKeysOff + 8 * cap + 4 * (idx + 1),
                 4 * (n - idx));
    SetNodeCount(p, static_cast<uint16_t>(n - 1));
    h.MarkDirty();
    if (n - 1 > 0) return Status::OK();
    // Node now has zero keys and exactly one child: splice it out.
    PageId only_child = ChildAt(p, cap, 0);
    PageId node_id = entry.page;
    h.Release();
    if (node_id == root_) {
      root_ = only_child;
      return pager_->FreePage(node_id);
    }
    if (path->empty()) {
      // Shouldn't happen (non-root node with empty path), but guard.
      return Status::Corruption("btree path exhausted during collapse");
    }
    // Replace the pointer in the parent with only_child; no key changes.
    PathEntry parent = path->back();
    LAXML_ASSIGN_OR_RETURN(PageHandle ph, pager_->Fetch(parent.page));
    uint8_t* pp = ph.view().payload();
    SetChildAt(pp, cap, parent.child_idx, only_child);
    ph.MarkDirty();
    return pager_->FreePage(node_id);
  }
  return Status::OK();
}

Status BTree::Drop() {
  // Post-order free via an explicit stack.
  std::vector<PageId> stack{root_};
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    {
      LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(page));
      const uint8_t* p = h.view().payload();
      if (NodeLevel(p) > 0) {
        uint16_t n = NodeCount(p);
        for (uint32_t i = 0; i <= n; ++i) {
          stack.push_back(ChildAt(p, InternalCapacity(), i));
        }
      }
    }
    LAXML_RETURN_IF_ERROR(pager_->FreePage(page));
  }
  root_ = kInvalidPageId;
  size_ = 0;
  return Status::OK();
}

Status BTree::CheckStructure(std::vector<BTreeCheckIssue>* issues,
                             std::vector<PageId>* visited) const {
  auto add = [&](PageId page, std::string what) {
    issues->push_back({page, std::move(what)});
  };
  if (root_ == kInvalidPageId) {
    add(kInvalidPageId, "tree has no root (dropped?)");
    return Status::OK();
  }
  // In-order DFS with parent-derived key bounds: child i of an internal
  // node holds keys in [keys[i-1], keys[i]) — separators are promoted
  // first-keys of right siblings, and the deletion policy preserves
  // this (removing child i also removes the separator beside it).
  struct Frame {
    PageId page;
    int parent_level;  // 256 for the root: no constraint
    uint64_t lo;       // inclusive
    uint64_t hi;       // exclusive, meaningful when has_hi
    bool has_hi;
  };
  std::unordered_set<PageId> seen;
  std::vector<PageId> leaves;
  uint64_t leaf_keys = 0;
  std::vector<Frame> stack{{root_, 256, 0, 0, false}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (!seen.insert(f.page).second) {
      add(f.page, "node reachable twice (cycle or shared child)");
      continue;
    }
    auto fetched = pager_->Fetch(f.page);
    if (!fetched.ok()) {
      add(f.page, "node unreadable: " + fetched.status().ToString());
      continue;
    }
    PageHandle h = std::move(fetched).value();
    if (visited != nullptr) visited->push_back(f.page);
    PageView view = h.view();
    const uint8_t* p = view.payload();
    const uint8_t level = NodeLevel(p);
    const uint16_t n = NodeCount(p);
    if (f.parent_level != 256 && level >= f.parent_level) {
      add(f.page, "level " + std::to_string(level) +
                      " not below parent level " +
                      std::to_string(f.parent_level));
      continue;  // descent bookkeeping would be unreliable
    }
    const PageType want_type =
        level == 0 ? PageType::kBTreeLeaf : PageType::kBTreeInternal;
    if (view.type() != want_type) {
      add(f.page, "page type " +
                      std::to_string(static_cast<int>(view.type())) +
                      " disagrees with node level " + std::to_string(level));
      continue;
    }
    const uint32_t cap = level == 0 ? LeafCapacity() : InternalCapacity();
    if (n > cap) {
      add(f.page, "count " + std::to_string(n) + " exceeds capacity " +
                      std::to_string(cap));
      continue;  // key/child arrays would run past the payload
    }
    if (n == 0 && f.page != root_) {
      add(f.page, level == 0 ? "empty non-root leaf not unlinked"
                             : "internal node with zero keys not collapsed");
    }
    // Key ordering within the parent-derived window.
    uint64_t prev_key = 0;
    bool have_prev = false;
    for (uint16_t i = 0; i < n; ++i) {
      uint64_t key = level == 0 ? LeafKey(p, i) : InternalKey(p, i);
      if (key < f.lo || (f.has_hi && key >= f.hi)) {
        add(f.page, "key " + std::to_string(key) + " at index " +
                        std::to_string(i) + " outside parent bounds");
      }
      if (have_prev && key <= prev_key) {
        add(f.page, "keys not strictly ascending at index " +
                        std::to_string(i));
      }
      prev_key = key;
      have_prev = true;
    }
    if (level == 0) {
      leaves.push_back(f.page);
      leaf_keys += n;
      continue;
    }
    // Push children right-to-left so the stack pops them in order.
    for (uint32_t i = n + 1; i-- > 0;) {
      Frame child;
      child.page = ChildAt(p, cap, i);
      child.parent_level = level;
      child.lo = i == 0 ? f.lo : InternalKey(p, i - 1);
      if (i < n) {
        child.hi = InternalKey(p, i);
        child.has_hi = true;
      } else {
        child.hi = f.hi;
        child.has_hi = f.has_hi;
      }
      stack.push_back(child);
    }
  }
  // Leaf chain vs the in-order leaf sequence.
  for (size_t i = 0; i < leaves.size(); ++i) {
    auto fetched = pager_->Fetch(leaves[i]);
    if (!fetched.ok()) continue;  // already reported above
    PageHandle h = std::move(fetched).value();
    const uint8_t* p = h.view().payload();
    PageId want_prev = i == 0 ? kInvalidPageId : leaves[i - 1];
    PageId want_next =
        i + 1 == leaves.size() ? kInvalidPageId : leaves[i + 1];
    if (DecodeFixed32(p + kLeafPrevOff) != want_prev) {
      add(leaves[i], "leaf chain prev pointer disagrees with tree order");
    }
    if (DecodeFixed32(p + kLeafNextOff) != want_next) {
      add(leaves[i], "leaf chain next pointer disagrees with tree order");
    }
  }
  if (issues->empty() && leaf_keys != size_) {
    add(root_, "leaf key total " + std::to_string(leaf_keys) +
                   " disagrees with tracked size " + std::to_string(size_));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Iterator

Status BTree::Iterator::Seek(uint64_t key) {
  valid_ = false;
  LAXML_ASSIGN_OR_RETURN(PageHandle h, tree_->DescendToLeaf(key, nullptr));
  leaf_ = h.id();
  const uint8_t* p = h.view().payload();
  uint16_t n = NodeCount(p);
  pos_ = static_cast<uint16_t>(
      LowerBound(n, key, [p](uint32_t i) { return LeafKey(p, i); }));
  if (pos_ >= n) {
    h.Release();
    return AdvanceLeaf();
  }
  valid_ = true;
  h.Release();
  return LoadEntry();
}

Status BTree::Iterator::SeekToFirst() { return Seek(0); }

Status BTree::Iterator::AdvanceLeaf() {
  while (true) {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, tree_->pager_->Fetch(leaf_));
    const uint8_t* p = h.view().payload();
    PageId next = DecodeFixed32(p + kLeafNextOff);
    if (next == kInvalidPageId) {
      valid_ = false;
      return Status::OK();
    }
    leaf_ = next;
    h.Release();
    LAXML_ASSIGN_OR_RETURN(PageHandle nh, tree_->pager_->Fetch(leaf_));
    if (NodeCount(nh.view().payload()) > 0) {
      pos_ = 0;
      valid_ = true;
      nh.Release();
      return LoadEntry();
    }
  }
}

Status BTree::Iterator::LoadEntry() {
  LAXML_ASSIGN_OR_RETURN(PageHandle h, tree_->pager_->Fetch(leaf_));
  const uint8_t* p = h.view().payload();
  key_ = LeafKey(p, pos_);
  const uint8_t* v =
      LeafValue(p, tree_->LeafCapacity(), tree_->value_size_, pos_);
  value_.assign(v, v + tree_->value_size_);
  return Status::OK();
}

Status BTree::Iterator::Next() {
  if (!valid_) return Status::OK();
  LAXML_ASSIGN_OR_RETURN(PageHandle h, tree_->pager_->Fetch(leaf_));
  const uint8_t* p = h.view().payload();
  uint16_t n = NodeCount(p);
  h.Release();
  if (pos_ + 1 < n) {
    ++pos_;
    return LoadEntry();
  }
  return AdvanceLeaf();
}

}  // namespace laxml
