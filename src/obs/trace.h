// Low-overhead engine tracing: per-thread ring buffers of timed spans,
// dumped on demand to a compact binary file that tools/laxml_trace
// renders as Chrome chrome://tracing JSON.
//
// A span is opened with LAXML_TRACE_SPAN("name") — an RAII object that
// records {thread, start, duration} into the calling thread's ring when
// it goes out of scope. Span names must be string literals (the ring
// stores the pointer; the dumper dedupes by content into a string
// table). Rings are fixed-capacity and overwrite their oldest entries,
// so a long-running server keeps the most recent window of activity —
// exactly what you want when diagnosing "why did it just get slow".
//
// Rings register themselves with the global Tracer on first use and are
// kept alive (shared_ptr) past thread exit so a dump after worker
// shutdown still sees their spans. Recording takes the ring's own
// mutex; it is uncontended except against a concurrent dump, keeping
// the record path cheap and the whole structure clean under tsan.
//
// Building with -DLAXML_TRACING=OFF compiles LAXML_TRACE_SPAN to
// nothing; the Tracer itself stays linked so --trace-out degrades to an
// empty dump instead of a build error.
//
// Spans carry the current request's trace id (obs/request_context.h):
// the RAII span stamps CurrentTraceId() when it records, so one
// request's spans — across client and server processes — share an id
// and can be stitched into a single trace (tools/laxml_trace merges
// multiple dumps and filters by --trace-id). Ring overflow is counted
// (Tracer::dropped()) instead of being silent.
//
// Binary dump format (all integers varint unless noted):
//
//   [magic "LAXT" u32][version u32]
//   [name_count][name_count x (len, bytes)]
//   [event_count][event_count x
//       (tid, name_id, start_us, dur_us, trace_id)]
//
// Version 2 added the per-event trace_id varint; a version-1 dump (four
// varints per event) is refused as Corruption.

#ifndef LAXML_OBS_TRACE_H_
#define LAXML_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/relaxed_counter.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/request_context.h"

namespace laxml {
namespace obs {

/// One completed span, as drained from the rings.
struct TraceEvent {
  uint64_t tid = 0;       ///< Tracer-assigned dense thread number.
  uint32_t name_id = 0;   ///< Index into TraceDump::names.
  uint64_t start_us = 0;  ///< Steady-clock microseconds.
  uint64_t dur_us = 0;
  uint64_t trace_id = 0;  ///< Request trace id; 0 = unattributed.
};

/// A decoded (or freshly collected) trace.
struct TraceDump {
  std::vector<std::string> names;
  std::vector<TraceEvent> events;  ///< Sorted by start_us.

  /// Chrome trace-event JSON ("X" complete events), loadable in
  /// chrome://tracing / Perfetto. Spans with a trace id carry it as
  /// args.trace_id.
  std::string ToChromeJson() const;
};

/// Merges `dumps` into one: names re-interned, per-dump tids offset so
/// distinct processes' threads stay distinct lanes, events re-sorted by
/// start. Trace ids pass through untouched — they are the cross-dump
/// join key.
TraceDump MergeTraceDumps(const std::vector<TraceDump>& dumps);

/// One thread's span buffer. Created lazily by Tracer::ThreadRing().
class TraceRing {
 public:
  /// `dropped` (may be null) counts the spans this ring overwrites.
  TraceRing(size_t capacity, uint64_t tid, RelaxedCounter* dropped = nullptr);

  /// Overwriting an undrained slot counts a drop: ring overflow loses
  /// the oldest span, visibly.
  void Record(const char* name, uint64_t start_us, uint64_t dur_us,
              uint64_t trace_id = 0);

  /// Appends this ring's spans (oldest first) to `dump`, interning
  /// names into dump->names.
  void Drain(TraceDump* dump) const;

  uint64_t tid() const { return tid_; }

 private:
  struct Slot {
    const char* name = nullptr;
    uint64_t start_us = 0;
    uint64_t dur_us = 0;
    uint64_t trace_id = 0;
  };

  mutable Mutex mu_;
  std::vector<Slot> slots_ LAXML_GUARDED_BY(mu_);
  size_t next_ LAXML_GUARDED_BY(mu_) = 0;  ///< Next slot to (over)write.
  bool wrapped_ LAXML_GUARDED_BY(mu_) = false;
  uint64_t tid_;
  RelaxedCounter* dropped_;
};

/// The process-wide collector: owns every thread's ring and serializes
/// dumps.
class Tracer {
 public:
  static Tracer& Global();

  /// The calling thread's ring (created and registered on first call).
  TraceRing* ThreadRing();

  /// Snapshot of every ring's contents, merged and time-sorted.
  TraceDump Collect() const;

  /// Writes Collect() in the binary dump format.
  Status DumpBinary(const std::string& path) const;

  /// Spans the rings overwrote before a dump saw them.
  uint64_t dropped() const { return dropped_; }

  /// Per-thread ring capacity for rings created after this call
  /// (default 8192 spans).
  void set_ring_capacity(size_t capacity) {
    MutexLock lock(mu_);
    ring_capacity_ = capacity;
  }

 private:
  mutable Mutex mu_;
  std::vector<std::shared_ptr<TraceRing>> rings_ LAXML_GUARDED_BY(mu_);
  uint64_t next_tid_ LAXML_GUARDED_BY(mu_) = 1;
  size_t ring_capacity_ LAXML_GUARDED_BY(mu_) = 8192;
  RelaxedCounter dropped_;
};

/// Adds laxml_trace_ring_dropped_total once a ring has dropped a span.
void CollectTraceMetrics(Snapshot* snap);

/// Serializes a dump to the binary format (exposed for tests).
std::vector<uint8_t> EncodeTraceDump(const TraceDump& dump);

/// Parses the binary dump format defensively (Corruption, never a
/// crash, on malformed input).
Result<TraceDump> DecodeTraceDump(const uint8_t* data, size_t size);

/// Reads + decodes a dump file.
Result<TraceDump> ReadTraceFile(const std::string& path);

/// RAII span: records on destruction, stamped with the current
/// request's trace id so a request's spans stitch into one trace.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name), start_us_(NowMicros()) {}
  ~ScopedSpan() {
    Tracer::Global().ThreadRing()->Record(name_, start_us_,
                                          NowMicros() - start_us_,
                                          CurrentTraceId());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_us_;
};

}  // namespace obs
}  // namespace laxml

#if !defined(LAXML_TRACING_DISABLED)
#define LAXML_TRACE_CONCAT_INNER(a, b) a##b
#define LAXML_TRACE_CONCAT(a, b) LAXML_TRACE_CONCAT_INNER(a, b)
/// Times the enclosing scope under `name` (a string literal).
#define LAXML_TRACE_SPAN(name) \
  ::laxml::obs::ScopedSpan LAXML_TRACE_CONCAT(laxml_trace_span_, __LINE__)(name)
#else
#define LAXML_TRACE_SPAN(name) \
  do {                         \
  } while (0)
#endif

#endif  // LAXML_OBS_TRACE_H_
