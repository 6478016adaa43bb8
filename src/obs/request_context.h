// Per-request observability context: a client-assignable trace id plus
// resource counters (tokens scanned, pages pinned/missed, latch waits,
// WAL bytes, index hits/misses) accumulated while one request executes.
//
// The context travels by thread, not by signature: the server worker
// (or any other entry point) installs a RequestContext into a
// thread-local slot with ScopedRequestContext, and the engine's hot
// paths attribute their work to whatever context is current via the
// LAXML_RC_* macros — one thread-local load and a predictable branch
// when no context is installed, nothing at all under
// -DLAXML_TRACING=OFF. This is the perf-context pattern: no engine
// layer changes its API to carry the accounting.
//
// The one-request-per-thread assumption holds today (workers execute a
// request start to finish; see server/server.h). Contexts nest — the
// EXPLAIN profile variant installs a fresh one around the measured
// query — and the destructor restores the previous context, so nesting
// is safe anywhere.
//
// The trace id additionally stitches spans: obs::ScopedSpan stamps
// CurrentTraceId() onto every span it records, so client and server
// dumps of one request merge into a single trace (tools/laxml_trace
// --trace-id).

#ifndef LAXML_OBS_REQUEST_CONTEXT_H_
#define LAXML_OBS_REQUEST_CONTEXT_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace laxml {
namespace obs {

/// Resource usage attributed to one request. Plain integers: only the
/// owning thread writes them, and only between install and uninstall.
struct RequestCounters {
  uint64_t tokens_scanned = 0;   ///< Cursor tokens decoded.
  uint64_t pages_pinned = 0;     ///< Buffer-pool fetches (hits + misses).
  uint64_t pages_missed = 0;     ///< Fetches that went to disk.
  uint64_t latch_wait_us = 0;    ///< Time blocked on the store latch.
  uint64_t wal_bytes = 0;        ///< WAL bytes appended.
  uint64_t partial_index_hits = 0;
  uint64_t partial_index_misses = 0;
  uint64_t structural_index_hits = 0;
  uint64_t structural_index_misses = 0;
  /// Postings a warm XPath plan's join kernels and path-summary merges
  /// visited (added once per plan).
  uint64_t postings_read = 0;

  /// Appends this struct as one JSON object (the slow-query log and
  /// EXPLAIN --profile schema).
  void AppendJson(std::string* out) const;
};

/// One request's identity and accounting. Stack-allocated by whoever
/// owns the request; installed via ScopedRequestContext.
struct RequestContext {
  uint64_t trace_id = 0;       ///< 0 = unassigned.
  const char* plan = nullptr;  ///< Planner verdict (static string).
  RequestCounters counters;
};

#if !defined(LAXML_TRACING_DISABLED)

namespace internal {
/// The installed context, or nullptr. Accessed only through the inline
/// helpers below. constinit: the slot needs no dynamic initialization,
/// so accesses skip the TLS wrapper and its init-function check (whose
/// flags GCC 12's UBSan null check misreads as a null address).
extern constinit thread_local RequestContext* tls_request_context;
}  // namespace internal

/// The calling thread's installed context (nullptr when none).
inline RequestContext* CurrentRequestContext() {
  return internal::tls_request_context;
}

/// Trace id of the installed context; 0 when none.
inline uint64_t CurrentTraceId() {
  const RequestContext* rc = internal::tls_request_context;
  return rc == nullptr ? 0 : rc->trace_id;
}

/// RAII install/uninstall. Nests: restores the previous context.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(RequestContext* ctx)
      : prev_(internal::tls_request_context) {
    internal::tls_request_context = ctx;
  }
  ~ScopedRequestContext() { internal::tls_request_context = prev_; }
  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext* prev_;
};

/// Latch-wait attribution. Begin returns 0 (and skips the clock read)
/// when no context is installed; End is a no-op for a 0 start.
inline uint64_t RequestLatchWaitBegin() {
  return CurrentRequestContext() == nullptr ? 0 : NowMicros();
}
inline void RequestLatchWaitEnd(uint64_t begin_us) {
  if (begin_us == 0) return;
  RequestContext* rc = CurrentRequestContext();
  if (rc != nullptr) rc->counters.latch_wait_us += NowMicros() - begin_us;
}

#else  // LAXML_TRACING_DISABLED

inline RequestContext* CurrentRequestContext() { return nullptr; }
inline uint64_t CurrentTraceId() { return 0; }

class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(RequestContext*) {}
  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;
};

inline uint64_t RequestLatchWaitBegin() { return 0; }
inline void RequestLatchWaitEnd(uint64_t) {}

#endif  // !defined(LAXML_TRACING_DISABLED)

}  // namespace obs
}  // namespace laxml

// ---------------------------------------------------------------------
// Hot-path attribution macros. One thread-local load + null check when
// tracing is on; nothing when it is off.

#if !defined(LAXML_TRACING_DISABLED)

/// Adds `n` to the named RequestCounters field of the current context.
#define LAXML_RC_ADD(field, n)                                 \
  do {                                                         \
    ::laxml::obs::RequestContext* laxml_rc =                   \
        ::laxml::obs::CurrentRequestContext();                 \
    if (laxml_rc != nullptr) laxml_rc->counters.field += (n);  \
  } while (0)

/// Records the planner's verdict (`label` must be a static string).
#define LAXML_RC_SET_PLAN(label)                 \
  do {                                           \
    ::laxml::obs::RequestContext* laxml_rc =     \
        ::laxml::obs::CurrentRequestContext();   \
    if (laxml_rc != nullptr) laxml_rc->plan = (label); \
  } while (0)

#else

#define LAXML_RC_ADD(field, n) \
  do {                         \
  } while (0)
#define LAXML_RC_SET_PLAN(label) \
  do {                           \
  } while (0)

#endif  // !defined(LAXML_TRACING_DISABLED)

#endif  // LAXML_OBS_REQUEST_CONTEXT_H_
