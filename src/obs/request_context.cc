#include "obs/request_context.h"

namespace laxml {
namespace obs {

#if !defined(LAXML_TRACING_DISABLED)
namespace internal {
constinit thread_local RequestContext* tls_request_context = nullptr;
}  // namespace internal
#endif

void RequestCounters::AppendJson(std::string* out) const {
  *out += "{\"tokens_scanned\":" + std::to_string(tokens_scanned);
  *out += ",\"pages_pinned\":" + std::to_string(pages_pinned);
  *out += ",\"pages_missed\":" + std::to_string(pages_missed);
  *out += ",\"latch_wait_us\":" + std::to_string(latch_wait_us);
  *out += ",\"wal_bytes\":" + std::to_string(wal_bytes);
  *out += ",\"partial_index_hits\":" + std::to_string(partial_index_hits);
  *out += ",\"partial_index_misses\":" + std::to_string(partial_index_misses);
  *out +=
      ",\"structural_index_hits\":" + std::to_string(structural_index_hits);
  *out += ",\"structural_index_misses\":" +
          std::to_string(structural_index_misses);
  *out += ",\"postings_read\":" + std::to_string(postings_read);
  *out += "}";
}

}  // namespace obs
}  // namespace laxml
