// Operation counters the benches and adaptivity examples read.

#ifndef LAXML_STORE_STATS_H_
#define LAXML_STORE_STATS_H_

#include <cstdint>
#include <string>

#include "common/relaxed_counter.h"

namespace laxml {

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

  std::string ToString() const;
};

}  // namespace laxml

#endif  // LAXML_STORE_STATS_H_
