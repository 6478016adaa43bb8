// Disk-backed B+-tree with 64-bit keys and fixed-size values, built on
// the pager. Backs two persistent structures:
//   * the range-meta tree     (RangeId -> RangeMeta, payload location
//                              included),
//   * the FULL INDEX baseline (NodeId  -> exact token location),
// the second of which is precisely the eager structure whose maintenance
// cost the paper's lazy design avoids (Section 4.1).
//
// Node layout (within the page payload):
//   common: [count u16][level u8][pad u8]
//   leaf   (level == 0): [prev u32][next u32] keys[cap]*u64 values[cap]*V
//   internal (level > 0): keys[cap]*u64 children[cap+1]*u32
//
// Leaves are doubly linked for ordered scans and O(1) unlink on empty.
// Deletion rebalancing policy: a node is removed when it becomes empty
// (leaves) or is left with zero keys and one child (internals, collapsed
// into the parent); partially filled nodes are not merged or borrowed
// from. This keeps every operation correct and bounded while avoiding
// the rebalancing state machine; space amplification under adversarial
// delete patterns is the documented trade-off.

#ifndef LAXML_BTREE_BTREE_H_
#define LAXML_BTREE_BTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/pager.h"

namespace laxml {

/// One structural problem found by BTree::CheckStructure, anchored to
/// the node page where it was observed.
struct BTreeCheckIssue {
  PageId page = kInvalidPageId;
  std::string what;
};

/// B+-tree over u64 keys with fixed `value_size` byte values.
class BTree {
 public:
  /// Creates an empty tree (allocates the root leaf).
  static Result<BTree> Create(Pager* pager, uint32_t value_size);

  /// Attaches to an existing tree.
  static Result<BTree> Open(Pager* pager, PageId root, uint32_t value_size);

  BTree(BTree&&) = default;
  BTree& operator=(BTree&&) = default;

  /// Inserts or overwrites. `value` must be exactly value_size bytes.
  Status Insert(uint64_t key, Slice value);

  /// Looks up `key`; copies the value into `value_out` (value_size
  /// bytes) when found. Returns whether the key exists.
  Result<bool> Get(uint64_t key, uint8_t* value_out) const;

  /// Removes `key`. NotFound when absent.
  Status Delete(uint64_t key);

  /// Frees every page of the tree. The tree is unusable afterwards.
  Status Drop();

  /// Current root page (persist this in the meta area; it changes when
  /// the root splits or collapses).
  PageId root() const { return root_; }

  /// Number of live keys (maintained in memory; authoritative after any
  /// sequence of operations on this handle, recomputed on Open()).
  uint64_t size() const { return size_; }

  uint32_t value_size() const { return value_size_; }

  /// Ordered forward iterator. Invalidated by any tree mutation.
  class Iterator {
   public:
    /// Positions at the first key >= `key`.
    Status Seek(uint64_t key);
    /// Positions at the smallest key.
    Status SeekToFirst();
    bool Valid() const { return valid_; }
    Status Next();
    uint64_t key() const { return key_; }
    /// value_size bytes, copied out of the page.
    const uint8_t* value() const { return value_.data(); }

   private:
    friend class BTree;
    explicit Iterator(const BTree* tree) : tree_(tree) {}
    Status LoadEntry();
    Status AdvanceLeaf();

    const BTree* tree_;
    PageId leaf_ = kInvalidPageId;
    uint16_t pos_ = 0;
    bool valid_ = false;
    uint64_t key_ = 0;
    std::vector<uint8_t> value_;
  };

  Iterator NewIterator() const { return Iterator(this); }

  /// Structural audit for the integrity auditor / laxml_fsck. Verifies
  /// per node: page type vs level coherence, key ordering within the
  /// bounds implied by the parent's separators, fanout (1 <= count <=
  /// capacity; the root leaf may be empty), and that child levels
  /// strictly decrease (exact level steps are NOT required: splicing a
  /// zero-key internal out during deletion legitimately shortens one
  /// subtree — see the deletion policy above). Then re-walks the leaf
  /// chain checking prev/next linkage against the in-order leaf
  /// sequence. Appends one issue per violation; unreadable or cyclic
  /// nodes become issues, not errors. `visited` (optional) receives
  /// every reachable node's page id so the caller can build a
  /// page-reachability map.
  Status CheckStructure(std::vector<BTreeCheckIssue>* issues,
                        std::vector<PageId>* visited = nullptr) const;

 private:
  BTree(Pager* pager, PageId root, uint32_t value_size)
      : pager_(pager), root_(root), value_size_(value_size) {}

  uint32_t LeafCapacity() const;
  uint32_t InternalCapacity() const;

  /// Descends to the leaf that should contain `key` and returns it
  /// pinned, recording the path of (page, child-slot-taken) for structure
  /// modifications. Each level is pinned exactly once.
  struct PathEntry {
    PageId page;
    uint16_t child_idx;  // which child pointer was followed
  };
  Result<PageHandle> DescendToLeaf(uint64_t key,
                                   std::vector<PathEntry>* path) const;

  Status SplitLeaf(PageId leaf_id, std::vector<PathEntry>* path);
  Status InsertIntoParent(std::vector<PathEntry>* path, uint64_t sep_key,
                          PageId new_child);
  Status RemoveLeaf(PageId leaf_id, std::vector<PathEntry>* path);

  /// Recounts keys by walking the leaf chain (used by Open).
  Status RecountSize();

  Pager* pager_;
  PageId root_;
  uint32_t value_size_;
  uint64_t size_ = 0;
};

}  // namespace laxml

#endif  // LAXML_BTREE_BTREE_H_
