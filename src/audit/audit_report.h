// Issue and report types for the runtime invariant auditor (see
// store_auditor.h). An AuditIssue pins a violated invariant to the
// layer that owns it and to the most precise coordinates available —
// page/slot for storage structures, range/byte-offset for the token
// chain, node id for index entries, file offset for the WAL — which is
// what lets laxml_fsck say *where* a store is corrupt, not just that
// it is.

#ifndef LAXML_AUDIT_AUDIT_REPORT_H_
#define LAXML_AUDIT_AUDIT_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/range_index.h"
#include "storage/page.h"
#include "xml/token.h"

namespace laxml {

/// Which layer's invariant an issue belongs to.
enum class AuditLayer {
  kMeta,          ///< Bootstrap metadata / global counters.
  kPage,          ///< Raw page: checksum, self-id, type byte, reachability.
  kFreeChain,     ///< Allocator free chain.
  kSlottedPage,   ///< Slot directory / free-space bookkeeping.
  kOverflow,      ///< Overflow record chains.
  kBTree,         ///< B+-tree node structure (any of the three trees).
  kRangeChain,    ///< Document-order range chain + per-range metadata.
  kRangeIndex,    ///< Coarse interval index vs the chain.
  kPartialIndex,  ///< Memoized begin/end token locations.
  kStructuralIndex,  ///< Memoized pre/post-order intervals.
  kFullIndex,     ///< Eager NodeId -> location baseline.
  kWal,           ///< Write-ahead log records.
  kBufferPool,    ///< Pin accounting at quiesce.
  kDictionary,    ///< Name dictionary vs the symbols payloads reference.
};

const char* AuditLayerName(AuditLayer layer);

/// One violated invariant, with coordinates. Fields keep their invalid
/// defaults when the coordinate does not apply.
struct AuditIssue {
  AuditLayer layer = AuditLayer::kMeta;
  std::string message;
  PageId page = kInvalidPageId;
  int32_t slot = -1;
  RangeId range = kInvalidRangeId;
  NodeId node = kInvalidNodeId;
  /// Byte offset (within a range payload or the WAL file).
  uint64_t offset = 0;
  bool has_offset = false;

  /// "[layer] message (page 7 slot 2, range 5, ...)" rendering.
  std::string ToString() const;

  /// One JSON object; coordinate keys appear only when they apply.
  std::string ToJson() const;
};

/// Everything one auditor run found, plus coverage counters so "no
/// issues" can be told apart from "nothing was scanned".
struct AuditReport {
  std::vector<AuditIssue> issues;
  bool truncated = false;  ///< Stopped early at AuditOptions::max_issues.

  uint64_t ranges_walked = 0;
  uint64_t tokens_scanned = 0;
  uint64_t heap_pages = 0;
  uint64_t overflow_pages = 0;
  uint64_t btree_nodes = 0;
  uint64_t partial_entries = 0;
  uint64_t structural_entries = 0;
  uint64_t full_entries = 0;
  uint64_t wal_records = 0;
  uint64_t pages_swept = 0;
  uint64_t dict_symbols = 0;       ///< Symbols in the name dictionary.
  uint64_t dict_symbols_used = 0;  ///< Distinct symbols payloads reference.
  /// Symbols present in the dictionary but referenced by no payload.
  /// Harmless (decode never touches them) but reported so operators see
  /// dictionary growth that deletes/compaction left behind.
  uint64_t dict_garbage_symbols = 0;
  /// Trailing log bytes that stopped verifying (torn tail): a normal
  /// crash artifact the next recovery trims, NOT corruption. Reported
  /// as a counter so operators see it; never an issue.
  uint64_t wal_torn_tail_bytes = 0;
  /// The zero run that ends the file past its last record: the
  /// pre-zeroed file's room for the next commits, not a torn tail (a
  /// torn tail counts only up to where this run begins).
  uint64_t wal_padding_bytes = 0;

  bool ok() const { return issues.empty(); }

  /// First `max_lines` issues, semicolon-joined (Status messages).
  std::string Summary(size_t max_lines = 4) const;

  /// Full multi-line listing with the coverage counters (laxml_fsck).
  std::string ToString() const;

  /// {"issues":[...],"truncated":...,"counters":{...}} for machine
  /// consumers (laxml_fsck --json, CI).
  std::string ToJson() const;
};

/// What an auditor run covers beyond its always-on legs (buffer pool,
/// B+-trees, heap, range layer, dictionary, partial and structural
/// indexes, WAL).
struct AuditOptions {
  /// Full disk sweep: every page's checksum/type, the free chain, and
  /// page reachability (every allocated page owned by exactly one
  /// structure). Off by default — it reflects the on-disk image, which
  /// is only meaningful for a quiesced store (laxml_fsck turns it on).
  bool check_pages = false;
  size_t max_issues = 256;
};

}  // namespace laxml

#endif  // LAXML_AUDIT_AUDIT_REPORT_H_
