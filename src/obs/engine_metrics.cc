#include "obs/engine_metrics.h"

#include "concurrency/shared_store.h"
#include "store/store.h"
#include "wal/wal.h"

namespace laxml {
namespace obs {

namespace {

/// Adds `h` to `snap` once it has recorded something.
void AddHistogram(const char* name, const std::string& labels,
                  const Histogram& h, Snapshot* snap) {
  if (h.count() > 0) snap->histograms[name + labels] = h.snapshot();
}

}  // namespace

void CollectStoreMetrics(Store& store, Snapshot* snap) {
  auto counter = [snap](const char* name, uint64_t v) {
    snap->counters[name] = v;
  };
  auto gauge = [snap](const char* name, uint64_t v) {
    snap->gauges[name] = static_cast<int64_t>(v);
  };

  const RangeManager& ranges = store.range_manager();
  gauge("laxml_store_ranges", ranges.range_count());
  const RangeManagerStats& range_stats = ranges.stats();
  counter("laxml_ranges_created_total", range_stats.ranges_created);
  counter("laxml_ranges_deleted_total", range_stats.ranges_deleted);
  counter("laxml_range_splits_total", range_stats.splits);
  counter("laxml_range_merges_total", range_stats.merges);

  // Name-dictionary compression: symbol count and the effective storage
  // cost per token (fixed-point, x1000 — gauges are integral). The
  // bytes/token gauge is THE compression health number: a regression
  // here means scans re-pay name redundancy on every page.
  gauge("laxml_dict_symbols", store.name_dictionary()->size());
  const uint64_t total_tokens = ranges.total_tokens();
  gauge("laxml_storage_payload_bytes", ranges.total_payload_bytes());
  gauge("laxml_storage_tokens", total_tokens);
  gauge("laxml_storage_bytes_per_token_x1000",
        total_tokens > 0 ? ranges.total_payload_bytes() * 1000 / total_tokens
                         : 0);
  gauge("laxml_store_live_nodes", store.live_node_count());
  gauge("laxml_store_node_high_water", store.node_high_water());
  gauge("laxml_full_index_entries", store.full_index_size());

  const RangeIndexStats& range_index = store.range_index().stats();
  counter("laxml_rangeindex_lookups_total", range_index.lookups);
  counter("laxml_rangeindex_hits_total", range_index.hits);

  const PartialIndex& partial = store.partial_index();
  gauge("laxml_partial_index_entries", partial.size());
  gauge("laxml_partial_index_capacity", partial.capacity());
  const PartialIndexStats& pstats = partial.stats();
  counter("laxml_partial_lookups_total", pstats.lookups);
  counter("laxml_partial_hits_total", pstats.hits);
  counter("laxml_partial_evictions_total", pstats.evictions);
  counter("laxml_partial_memoizations_total",
          pstats.begin_records + pstats.end_records);
  counter("laxml_partial_invalidations_total", pstats.invalidations);

  // Structural XPath index: warm-hit ratio and how little the lazy
  // policy actually memoized (memoized_nodes vs laxml_store_live_nodes
  // is the laziness claim, observable).
  const StructuralIndex* structural = store.structural_index();
  const StructuralIndexStats& sstats = structural->stats();
  counter("laxml_structural_index_hits_total", sstats.hits);
  counter("laxml_structural_index_misses_total", sstats.misses);
  counter("laxml_structural_index_invalidations_total",
          sstats.invalidations);
  gauge("laxml_structural_index_memoized_nodes",
        structural->memoized_nodes());
  gauge("laxml_structural_index_warmed_tags", structural->warmed_tags());

  // Fail-stop state: 1 once a post-open I/O error poisoned the store
  // (mutations rejected, reads degraded) — the alert bit.
  gauge("laxml_store_poisoned", store.poisoned() ? 1 : 0);

  const StoreStats& stats = store.stats();
  counter("laxml_store_inserts_total", stats.inserts);
  counter("laxml_store_deletes_total", stats.deletes);
  counter("laxml_store_replaces_total", stats.replaces);
  counter("laxml_store_reads_by_id_total", stats.reads_by_id);
  counter("laxml_store_full_scans_total", stats.full_scans);
  counter("laxml_store_tokens_inserted_total", stats.tokens_inserted);
  counter("laxml_store_bytes_inserted_total", stats.bytes_inserted);
  counter("laxml_store_locate_scan_tokens_total", stats.locate_scan_tokens);
  counter("laxml_store_full_index_maintenance_total",
          stats.full_index_maintenance);
  // Per-op series appear once the op has recorded something.
  for (size_t i = 0; i < kStoreOpCount; ++i) {
    const std::string labels = std::string("{op=\"") + kStoreOpNames[i] + "\"}";
    AddHistogram("laxml_store_op_us", labels, stats.op_us[i], snap);
    if (stats.io_errors[i] > 0) {
      snap->counters["laxml_io_errors_total" + labels] = stats.io_errors[i];
    }
  }
  if (stats.bulk_load_bytes > 0) {
    counter("laxml_bulk_load_bytes_total", stats.bulk_load_bytes);
  }

  const RecordStoreStats& records = ranges.record_stats();
  gauge("laxml_recordstore_data_pages", records.data_pages);
  counter("laxml_recordstore_overflow_records_total",
          records.overflow_records);

  if (const Wal* wal = store.wal(); wal != nullptr) {
    const WalStats& wstats = wal->stats();
    counter("laxml_wal_appends_total", wstats.records_appended);
    counter("laxml_wal_bytes_appended_total", wstats.bytes_appended);
    counter("laxml_wal_syncs_total", wstats.syncs);
    counter("laxml_wal_truncations_total", wstats.truncations);
    AddHistogram("laxml_wal_fsync_us", "", wstats.fsync_us, snap);
  }

  Pager* pager = store.pager();
  gauge("laxml_file_pages", pager->page_count());
  gauge("laxml_file_free_pages", pager->free_page_count());
  BufferPool* pool = pager->pool();
  gauge("laxml_pool_frames", pool->frame_count());
  gauge("laxml_pool_dirty_frames", pool->dirty_count());
  gauge("laxml_pool_pinned_frames", pool->pinned_frame_count());
  const BufferPoolStats& pool_stats = pool->stats();
  counter("laxml_bufferpool_hits_total", pool_stats.hits);
  counter("laxml_bufferpool_misses_total", pool_stats.misses);
  counter("laxml_bufferpool_evictions_total", pool_stats.evictions);
  counter("laxml_bufferpool_page_reads_total", pool_stats.page_reads);
  counter("laxml_bufferpool_page_writes_total", pool_stats.page_writes);
  counter("laxml_bufferpool_checksum_failures_total",
          pool_stats.checksum_failures);
}

void CollectSharedStoreMetrics(SharedStore& shared, Snapshot* snap) {
  // Every level the collector reads is an atomic counter or a
  // lock-guarded size, so the shared latch suffices; the cut is
  // near-consistent (individual counters may be mid-batch).
  shared.WithShared([snap](Store& s) { CollectStoreMetrics(s, snap); });
  const SharedStoreStats& latch = shared.stats();
  snap->counters["laxml_latch_shared_total"] = latch.shared_acquisitions;
  snap->counters["laxml_latch_exclusive_total"] =
      latch.exclusive_acquisitions;
  if (const GroupCommit* gc = shared.group_commit(); gc != nullptr) {
    snap->counters["laxml_wal_group_commit_piggybacked_total"] =
        gc->stats().piggybacked;
    AddHistogram("laxml_wal_group_commit_batch", "", gc->stats().batch, snap);
  }
}

}  // namespace obs
}  // namespace laxml
