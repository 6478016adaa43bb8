// Operation counters the benches and adaptivity examples read.

#ifndef LAXML_STORE_STATS_H_
#define LAXML_STORE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/relaxed_counter.h"
#include "obs/metrics.h"

namespace laxml {

/// The Store operations the per-op stats are kept for: the latency
/// histograms (the Table-1 mutators and both reads) and the I/O-error
/// counts (the mutators, Sync, bulk load and range compaction). The
/// eight mutators come first, in WalOp order, so Store::Apply indexes
/// both arrays with the WalOp value.
enum class StoreOp : uint8_t {
  kInsertBefore,
  kInsertAfter,
  kInsertIntoFirst,
  kInsertIntoLast,
  kDelete,
  kReplaceNode,
  kReplaceContent,
  kInsertTopLevel,
  kReadById,
  kFullScan,
  kSync,
  kBulkLoad,
  kCompact,
};
inline constexpr size_t kStoreOpCount =
    static_cast<size_t>(StoreOp::kCompact) + 1;

/// Each op's label value in laxml_store_op_us{op} and
/// laxml_io_errors_total{op}, indexed by StoreOp.
inline constexpr const char* kStoreOpNames[kStoreOpCount] = {
    "insert_before",
    "insert_after",
    "insert_into_first",
    "insert_into_last",
    "delete",
    "replace_node",
    "replace_content",
    "insert_top_level",
    "read_by_id",
    "full_scan",
    "sync",
    "bulk_load",
    "compact_ranges",
};

/// Store-level counters. Substrate counters (buffer pool, record store,
/// range manager, indexes) are exposed by their own structs. Fields are
/// RelaxedCounters so a stats poller reading through Store::stats() is
/// race-free against a concurrent mutator (see mt_stress_test).
struct StoreStats {
  RelaxedCounter inserts;        ///< Insert* calls.
  RelaxedCounter deletes;        ///< DeleteNode calls.
  RelaxedCounter replaces;       ///< ReplaceNode / ReplaceContent calls.
  RelaxedCounter reads_by_id;    ///< Read(id) calls.
  RelaxedCounter full_scans;     ///< Read() calls.
  RelaxedCounter tokens_inserted;
  RelaxedCounter bytes_inserted;
  RelaxedCounter nodes_inserted;
  RelaxedCounter nodes_deleted;
  /// Token headers read while *locating* ids the lazy way (ranges passed
  /// on their depth profile are not read) — the measurable price of
  /// coarse ranges that the Partial Index exists to amortize.
  RelaxedCounter locate_scan_tokens;
  /// Full-index maintenance operations (puts + deletes + split-rebasing
  /// re-puts) — the measurable price of eagerness.
  RelaxedCounter full_index_maintenance;
  /// XML bytes streamed in by BulkLoad.
  RelaxedCounter bulk_load_bytes;

  /// Wall time of each op in microseconds (laxml_store_op_us{op}).
  obs::Histogram op_us[kStoreOpCount];
  /// Environmental failures (I/O, corruption, no space, exhaustion)
  /// that poisoned the store, by the op that hit them.
  RelaxedCounter io_errors[kStoreOpCount];

  obs::Histogram& latency(StoreOp op) {
    return op_us[static_cast<size_t>(op)];
  }

  std::string ToString() const;
};

}  // namespace laxml

#endif  // LAXML_STORE_STATS_H_
