/**
 * @file
 * Counting operator new/delete replacements plus the AllocRegion
 * registry. Replacing the global allocation functions is standard C++
 * (\[new.delete.single]); any binary that links this translation unit
 * gets the counting hooks. The hooks forward to std::malloc/std::free,
 * which sanitizer runtimes still intercept.
 */

#include "elasticrec/common/alloc_tracker.h"

#include <cstdlib>
#include <new>

namespace erec {

namespace {

// Plain thread_local integers: constant-initialized (no TLS guard) and
// trivially destructible, so the hooks stay safe during thread start
// and teardown when allocations can happen very early or very late.
thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_deallocs = 0;
thread_local std::uint64_t t_bytes = 0;

inline void
recordAlloc(std::size_t bytes) noexcept
{
    ++t_allocs;
    t_bytes += bytes;
}

inline void
recordDealloc() noexcept
{
    ++t_deallocs;
}

/** malloc with the required alignment; nullptr on failure. */
void *
alignedAlloc(std::size_t size, std::size_t align) noexcept
{
    if (align <= alignof(std::max_align_t))
        return std::malloc(size);
    // aligned_alloc requires size to be a multiple of the alignment.
    const std::size_t rounded = (size + align - 1) / align * align;
    return std::aligned_alloc(align, rounded);
}

/** Registry head; regions are pushed once and never removed. */
std::atomic<AllocRegion *> g_regions{nullptr};

} // namespace

AllocCounts
threadAllocCounts()
{
    AllocCounts c;
    c.allocs = t_allocs;
    c.deallocs = t_deallocs;
    c.bytes = t_bytes;
    return c;
}

AllocRegion::AllocRegion(const char *name) : name_(name)
{
    next_ = g_regions.load(std::memory_order_relaxed);
    while (!g_regions.compare_exchange_weak(next_, this,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
    }
}

void
AllocRegion::reset()
{
    enters_.store(0, std::memory_order_relaxed);
    allocs_.store(0, std::memory_order_relaxed);
    bytes_.store(0, std::memory_order_relaxed);
}

AllocGate::AllocGate(AllocRegion &region)
    : region_(region), entry_(threadAllocCounts())
{
}

AllocGate::~AllocGate()
{
    const AllocCounts now = threadAllocCounts();
    region_.enters_.fetch_add(1, std::memory_order_relaxed);
    region_.allocs_.fetch_add(now.allocs - entry_.allocs,
                              std::memory_order_relaxed);
    region_.bytes_.fetch_add(now.bytes - entry_.bytes,
                             std::memory_order_relaxed);
}

std::uint64_t
AllocGate::allocsInScope() const
{
    return threadAllocCounts().allocs - entry_.allocs;
}

std::vector<AllocRegionStats>
allocRegionStats()
{
    std::vector<AllocRegionStats> out;
    for (const AllocRegion *r = g_regions.load(std::memory_order_acquire);
         r != nullptr; r = r->next_) {
        AllocRegionStats s;
        s.name = r->name();
        s.enters = r->enters();
        s.allocs = r->allocs();
        s.bytes = r->bytes();
        out.push_back(s);
    }
    return out;
}

void
resetAllocRegionStats()
{
    for (AllocRegion *r = g_regions.load(std::memory_order_acquire);
         r != nullptr; r = r->next_)
        r->reset();
}

} // namespace erec

// Global replacement allocation functions. Raw `throw` is the
// contract of the replaceable operator new, so the raw-throw lint rule
// is suppressed line by line.

void *
operator new(std::size_t size)
{
    if (void *p = std::malloc(size ? size : 1)) {
        erec::recordAlloc(size);
        return p;
    }
    throw std::bad_alloc(); // erec-lint: allow(raw-throw)
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = erec::alignedAlloc(size ? size : 1,
                                     static_cast<std::size_t>(align))) {
        erec::recordAlloc(size);
        return p;
    }
    throw std::bad_alloc(); // erec-lint: allow(raw-throw)
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    if (void *p = std::malloc(size ? size : 1)) {
        erec::recordAlloc(size);
        return p;
    }
    return nullptr;
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return ::operator new(size, std::nothrow);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    if (void *p = erec::alignedAlloc(size ? size : 1,
                                     static_cast<std::size_t>(align))) {
        erec::recordAlloc(size);
        return p;
    }
    return nullptr;
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return ::operator new(size, align, std::nothrow);
}

void
operator delete(void *p) noexcept
{
    if (p == nullptr)
        return;
    erec::recordDealloc();
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}
