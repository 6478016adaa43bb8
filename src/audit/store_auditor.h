// The runtime invariant auditor: walks an open Store and validates the
// invariants that tie its layers together. Complementary to the unit
// tests (which exercise one layer at a time) and to page checksums
// (which catch bit rot but not logically-inconsistent writes), this is
// the engine's fsck heart: it cross-checks
//
//   * the Range Index against the token chain — intervals must exactly
//     tile the chain's id-bearing ranges, no gaps, no overlaps;
//   * every Partial Index memo against the payload bytes it claims to
//     shortcut — each memoized TokenPos (range, offset, token index,
//     begins before) must land on a real begin/end token of the right
//     node, with the counts a walk of the range finds;
//   * every Structural Index interval against a fresh stream scan — the
//     memoized (pre, post, parent pre, level, range, offset) of each
//     element or attribute must equal what re-deriving it from the
//     current token stream yields, and each tag's posting list must be
//     pre-sorted; each entry must sit in its label path's partition of
//     the path summary, each partition in pre order, and a tag's
//     partitions must hold its list exactly once;
//   * (full-index mode) every begin token against its eager index entry;
//   * slotted heap pages — slot directory bounds, extent overlap, and
//     the free-space accounting identity — and every live slot on them
//     anchoring exactly one range;
//   * both B+-trees (range meta, and the full index when there is one)
//     — node structure, key order, fanout, leaf chain (see
//     BTree::CheckStructure);
//   * every RangeMeta's payload location and the overflow chain it
//     anchors, and the resident location map against the meta tree;
//   * the WAL record chain (CRC framing, byte-precise);
//   * buffer pool pin accounting at quiesce;
//   * optionally the raw page image: checksums, the free chain, and
//     page reachability (every page owned by exactly one structure).
//
// Everything is read-only. Issues collect into an AuditReport with
// layer + coordinates; Store::CheckIntegrity() wraps a default run into
// a Status, and laxml_fsck drives it against closed files.

#ifndef LAXML_AUDIT_STORE_AUDITOR_H_
#define LAXML_AUDIT_STORE_AUDITOR_H_

#include <unordered_map>
#include <unordered_set>

#include "audit/audit_report.h"
#include "store/store.h"

namespace laxml {

class StoreAuditor {
 public:
  /// The store must stay alive and unmutated for the duration of Run().
  explicit StoreAuditor(const Store* store) : store_(store) {}

  /// Runs the enabled audit legs and returns the findings. Never
  /// mutates the store; IO failures become issues, not aborts.
  AuditReport Run(const AuditOptions& options = {});

 private:
  /// True when the issue budget is exhausted (legs stop early).
  bool Full();

  /// Appends an issue and returns it for coordinate stamping.
  AuditIssue& Add(AuditLayer layer, std::string message);

  /// Records `owner` as the structure a page belongs to; a second
  /// claim is itself a kPage issue (two structures sharing a page).
  void Claim(PageId page, const char* owner);

  void AuditBufferPool();
  void AuditBTrees();
  void AuditRangeLayer();
  void AuditDictionary();
  void AuditPartialIndex();
  void AuditStructuralIndex();
  void AuditHeapAndOverflow();
  void AuditResidentLocations();
  void AuditWal();
  void AuditPageSweep();

  const Store* store_;
  AuditOptions options_;
  AuditReport report_;
  /// Page ownership map for the reachability sweep.
  std::unordered_map<PageId, const char*> owners_;
  /// Pages of the heap chain (anchor validation for range payloads).
  std::unordered_set<PageId> heap_pages_;
  /// Dictionary symbols referenced by any range payload (collected by
  /// the range-layer walk, consumed by the dictionary leg).
  std::unordered_set<uint32_t> used_symbols_;
  /// True once the range walk covered every payload byte — only then is
  /// "symbol never referenced" a meaningful claim.
  bool range_walk_intact_ = false;
};

}  // namespace laxml

#endif  // LAXML_AUDIT_STORE_AUDITOR_H_
