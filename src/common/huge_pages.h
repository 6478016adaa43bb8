// Transparent huge-page advice for a large buffer its caller is about to
// fill. A whole-store scan writes tens of megabytes of fresh Token slots
// in one pass; backed by 4 KiB pages, the first write to each page takes
// a fault, and those faults cost more than decoding the tokens (DESIGN
// §15, "Whole-store reads"). With huge pages one fault maps 2 MiB.
//
// This file pair is the one place the engine speaks to the kernel's
// memory advice (tools/laxml_lint checks it).

#ifndef LAXML_COMMON_HUGE_PAGES_H_
#define LAXML_COMMON_HUGE_PAGES_H_

#include <cstddef>

namespace laxml {

/// Size and alignment of the huge pages the advice asks for.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// The whole kHugePageBytes blocks inside a byte range.
struct HugePageSpan {
  char* begin = nullptr;
  size_t bytes = 0;  ///< A multiple of kHugePageBytes; 0 when none fit.
};

/// [data, data + bytes) rounded inward to whole blocks: begin rounded
/// up, end rounded down, so the span never covers a byte outside it.
HugePageSpan HugePageBlocks(void* data, size_t bytes);

/// Asks the kernel to back HugePageBlocks(data, bytes) with transparent
/// huge pages. Call it before the first write, on memory the caller
/// will fill whole: a huge page is resident all at once. Advice only:
/// failure is ignored, and it is a no-op where the platform has no
/// MADV_HUGEPAGE or the kernel has THP off, so contents never change.
void AdviseHugePages(void* data, size_t bytes);

}  // namespace laxml

#endif  // LAXML_COMMON_HUGE_PAGES_H_
