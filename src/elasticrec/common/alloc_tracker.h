#pragma once

/**
 * @file
 * Dynamic counterpart of `erec_analyze`'s hotpath pack: thread-local
 * operator-new/delete counting plus a scoped RAII gate that charges the
 * allocations a code region performs to a named AllocRegion.
 *
 * Linking `common/alloc_tracker.cc` into a binary installs global
 * replacement operator new/delete that bump thread-local counters on
 * the way to std::malloc / std::free (the replacements are standard
 * C++; ASan/TSan still intercept the underlying malloc). The counters
 * are per-thread and monotone, so reading them costs a few TLS loads
 * and the hooks add a handful of instructions per allocation.
 *
 * Usage — wrap a steady-state region and charge it to a region:
 *
 *     {
 *         AllocGate gate(myRegion());
 *         ... steady-state work that must not allocate ...
 *     }  // destructor adds this scope's allocations to the region
 *
 * Tests and benches then assert `region.allocs() == 0` (or publish
 * allocs-per-query) after a warm-up phase. Regions self-register into
 * a global list so bench harnesses can snapshot/reset every region
 * without naming them (allocRegionStats / resetAllocRegionStats).
 *
 * Nested gates double-charge inner allocations to both regions; the
 * steady-state regions this repo gates are all expected to sit at
 * zero, so the overlap is harmless and keeps the gate trivial. A gate
 * only observes its *own* thread's allocations — exactly the hot-path
 * contract, where each worker's steady loop must be allocation-free.
 */

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <vector>

namespace erec {

/** Snapshot of one thread's allocation counters (monotone). */
struct AllocCounts
{
    std::uint64_t allocs = 0;
    std::uint64_t deallocs = 0;
    std::uint64_t bytes = 0;
};

/** This thread's counters since thread start. */
AllocCounts threadAllocCounts();

/** Snapshot of one region for allocRegionStats(). */
struct AllocRegionStats
{
    const char *name = nullptr;
    std::uint64_t enters = 0;
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};

/**
 * A named accumulator for the allocations observed inside AllocGate
 * scopes. Construct as a namespace-scope or function-local static (the
 * constructor registers the region in a global list and regions are
 * never unregistered), then gate scopes against it.
 */
class AllocRegion
{
  public:
    explicit AllocRegion(const char *name);

    AllocRegion(const AllocRegion &) = delete;
    AllocRegion &operator=(const AllocRegion &) = delete;

    const char *name() const { return name_; }

    /** Gate scopes entered against this region since last reset(). */
    std::uint64_t enters() const
    {
        return enters_.load(std::memory_order_relaxed);
    }

    /** Allocations observed inside this region's gate scopes. */
    std::uint64_t allocs() const
    {
        return allocs_.load(std::memory_order_relaxed);
    }

    /** Bytes requested inside this region's gate scopes. */
    std::uint64_t bytes() const
    {
        return bytes_.load(std::memory_order_relaxed);
    }

    /** Zero the accumulators (e.g. after a warm-up phase). */
    void reset();

  private:
    friend class AllocGate;
    friend std::vector<AllocRegionStats> allocRegionStats();
    friend void resetAllocRegionStats();

    const char *name_;
    // Relaxed atomics: gates on different threads add concurrently and
    // nothing is ordered against these counters.
    std::atomic<std::uint64_t> enters_{0};
    std::atomic<std::uint64_t> allocs_{0};
    std::atomic<std::uint64_t> bytes_{0};
    /** Intrusive registry link (registration order, never removed). */
    AllocRegion *next_ = nullptr;
};

/**
 * RAII scope: snapshots this thread's counters on entry and adds the
 * delta to the region on exit. Construction and destruction never
 * allocate, so a gate can wrap a region that must stay at zero.
 */
class AllocGate
{
  public:
    explicit AllocGate(AllocRegion &region);
    ~AllocGate();

    AllocGate(const AllocGate &) = delete;
    AllocGate &operator=(const AllocGate &) = delete;

    /** Allocations this thread performed since the gate opened. A
     *  probe for alloc_tracker_test. */
    std::uint64_t allocsInScope() const;

  private:
    AllocRegion &region_;
    AllocCounts entry_;
};

/** Snapshot every registered region, in registration order. */
std::vector<AllocRegionStats> allocRegionStats();

/** Zero every registered region's accumulators. */
void resetAllocRegionStats();

} // namespace erec
