// Scrape-time collectors: copy the engine's per-instance stats structs
// into a caller-owned obs::Snapshot as typed families. The structs are
// the only counters of the events they count, so each scrape reads
// them and nothing else mirrors them. Monotone fields become counters
// named *_total (laxml_partial_hits_total, laxml_bufferpool_hits_total,
// laxml_store_inserts_total, ...); levels (range count, live nodes,
// pool occupancy, index sizes, the poisoned bit) become gauges; the
// op-latency, fsync and group-commit batch histograms are copied
// whole. A collector reads one instance, so two stores in one process
// scrape independently: each Server renders its own.

#ifndef LAXML_OBS_ENGINE_METRICS_H_
#define LAXML_OBS_ENGINE_METRICS_H_

#include "obs/metrics.h"

namespace laxml {

class SharedStore;
class Store;

namespace obs {

/// Adds `store`'s counters and levels to `snap`. Call under the store's
/// shared latch (SharedStore::WithShared) when other threads may be
/// mutating it.
void CollectStoreMetrics(Store& store, Snapshot* snap);

/// CollectStoreMetrics under `shared`'s shared latch, plus its latch
/// counters and, when group commit is on, the group-commit counters.
void CollectSharedStoreMetrics(SharedStore& shared, Snapshot* snap);

}  // namespace obs
}  // namespace laxml

#endif  // LAXML_OBS_ENGINE_METRICS_H_
