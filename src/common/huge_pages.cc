#include "common/huge_pages.h"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace laxml {

HugePageSpan HugePageBlocks(void* data, size_t bytes) {
  const uintptr_t start = reinterpret_cast<uintptr_t>(data);
  const uintptr_t first = (start + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const uintptr_t last = (start + bytes) & ~(kHugePageBytes - 1);
  if (last <= first) return {};
  return {static_cast<char*>(data) + (first - start), last - first};
}

void AdviseHugePages(void* data, size_t bytes) {
#if defined(MADV_HUGEPAGE)
  const HugePageSpan span = HugePageBlocks(data, bytes);
  if (span.bytes != 0) (void)::madvise(span.begin, span.bytes, MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace laxml
