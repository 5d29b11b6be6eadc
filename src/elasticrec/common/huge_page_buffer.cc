#include "elasticrec/common/huge_page_buffer.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>

#include "elasticrec/common/error.h"

namespace erec {

namespace {

/** Heap-path alignment: one cache line, so a row whose size is a
 *  multiple of 64 bytes never straddles an extra line. */
constexpr std::size_t kCacheLineBytes = 64;

std::size_t
roundUp(std::size_t v, std::size_t to)
{
    return (v + to - 1) / to * to;
}

} // namespace

bool
hugePagesSupported()
{
#ifdef MADV_HUGEPAGE
    return true;
#else
    return false;
#endif
}

namespace detail {

HugePageBlock
mapHugePageBlock(std::size_t bytes)
{
#ifdef MADV_HUGEPAGE
    if (bytes >= kHugePageBytes) {
        // The length rounds to the base page only: the tail past the
        // last 2 MiB boundary stays on base pages instead of costing a
        // partly used huge page of RSS.
        const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        const std::size_t len = roundUp(bytes, page);
        // Over-map by one huge page, then trim to a 2 MiB-aligned start.
        const std::size_t span = len + kHugePageBytes;
        void *raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        ERC_CHECK(raw != MAP_FAILED, "cannot map " << len << " bytes");
        const auto lo = reinterpret_cast<std::uintptr_t>(raw);
        const std::uintptr_t start = roundUp(lo, kHugePageBytes);
        const std::uintptr_t end = start + len;
        if (start > lo)
            munmap(raw, start - lo);
        munmap(reinterpret_cast<void *>(end), lo + span - end);
        void *base = reinterpret_cast<void *>(start);
        // Advice before the first touch, so the first write faults in
        // whole huge pages. Failure (THP compiled out) only leaves the
        // mapping on base pages, which is still a working buffer.
        (void)madvise(base, len, MADV_HUGEPAGE);
        return {base, len};
    }
#endif
    void *base =
        std::aligned_alloc(kCacheLineBytes, roundUp(bytes, kCacheLineBytes));
    ERC_CHECK(base != nullptr, "cannot allocate " << bytes << " bytes");
    std::memset(base, 0, bytes);
    return {base, 0};
}

void
unmapHugePageBlock(HugePageBlock block)
{
    if (block.mapped > 0)
        munmap(block.base, block.mapped);
    else
        std::free(block.base);
}

} // namespace detail
} // namespace erec
