/**
 * @file
 * Tests for the dynamic hot-path counterpart (common/alloc_tracker.h):
 * the counting operator-new/delete replacements, AllocGate scoping,
 * the named-region registry, and concurrent gates on worker threads
 * (the TSan job runs this suite to certify the relaxed-atomic region
 * accumulators).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string_view>
#include <thread>
#include <vector>

#include "elasticrec/common/alloc_tracker.h"

namespace {

/**
 * Regions register into a process-global list and are never removed,
 * so every test region lives as a function-local static.
 */
erec::AllocRegion &
testRegion()
{
    static erec::AllocRegion region("alloc-tracker-test");
    return region;
}

/**
 * Defeat allocation elision: the pointer escapes through an atomic
 * (stores may come from several test threads at once).
 */
std::atomic<void *> g_sink{nullptr};

void
allocateOnce(std::size_t bytes)
{
    char *p = new char[bytes];
    g_sink.store(p, std::memory_order_relaxed);
    delete[] p;
}

TEST(AllocTracker, ThreadCountersAreMonotoneAndCountNewDelete)
{
    const auto before = erec::threadAllocCounts();
    allocateOnce(64);
    const auto after = erec::threadAllocCounts();
    // Exactly one new[]/delete[] pair ran between the snapshots; the
    // counters may also see incidental allocations (none here, but >=
    // keeps the test robust against library internals).
    EXPECT_GE(after.allocs, before.allocs + 1);
    EXPECT_GE(after.deallocs, before.deallocs + 1);
    EXPECT_GE(after.bytes, before.bytes + 64);
}

TEST(AllocTracker, GateChargesAllocationsToItsRegion)
{
    erec::AllocRegion &region = testRegion();
    region.reset();
    {
        erec::AllocGate gate(region);
        allocateOnce(128);
        EXPECT_GE(gate.allocsInScope(), 1u);
    }
    EXPECT_EQ(region.enters(), 1u);
    EXPECT_GE(region.allocs(), 1u);
    EXPECT_GE(region.bytes(), 128u);
}

TEST(AllocTracker, GateStaysAtZeroWhenTheScopeDoesNotAllocate)
{
    erec::AllocRegion &region = testRegion();
    region.reset();
    {
        erec::AllocGate gate(region);
        int local = 7;
        g_sink.store(&local, std::memory_order_relaxed);
        EXPECT_EQ(gate.allocsInScope(), 0u);
    }
    EXPECT_EQ(region.enters(), 1u);
    EXPECT_EQ(region.allocs(), 0u);
    EXPECT_EQ(region.bytes(), 0u);
}

TEST(AllocTracker, AllocationsOutsideTheGateAreNotCharged)
{
    erec::AllocRegion &region = testRegion();
    region.reset();
    allocateOnce(64); // before the gate
    {
        erec::AllocGate gate(region);
        int local = 0;
        g_sink.store(&local, std::memory_order_relaxed);
    }
    allocateOnce(64); // after the gate
    EXPECT_EQ(region.allocs(), 0u);
}

TEST(AllocTracker, ResetZerosTheAccumulators)
{
    erec::AllocRegion &region = testRegion();
    region.reset();
    {
        erec::AllocGate gate(region);
        allocateOnce(32);
    }
    ASSERT_GE(region.allocs(), 1u);
    region.reset();
    EXPECT_EQ(region.enters(), 0u);
    EXPECT_EQ(region.allocs(), 0u);
    EXPECT_EQ(region.bytes(), 0u);
}

TEST(AllocTracker, RegistryListsRegionsAndGlobalResetClearsThem)
{
    erec::AllocRegion &region = testRegion();
    erec::resetAllocRegionStats();
    {
        erec::AllocGate gate(region);
        allocateOnce(16);
    }
    bool found = false;
    for (const auto &stats : erec::allocRegionStats()) {
        if (std::string_view(stats.name) == "alloc-tracker-test") {
            found = true;
            EXPECT_EQ(stats.enters, 1u);
            EXPECT_GE(stats.allocs, 1u);
        }
    }
    EXPECT_TRUE(found);

    erec::resetAllocRegionStats();
    for (const auto &stats : erec::allocRegionStats()) {
        EXPECT_EQ(stats.allocs, 0u) << stats.name;
        EXPECT_EQ(stats.enters, 0u) << stats.name;
    }
}

TEST(AllocTracker, GateObservesOnlyItsOwnThread)
{
    erec::AllocRegion &region = testRegion();
    region.reset();

    // The helper thread is spawned *before* the gate opens (std::thread
    // construction allocates its shared state on the spawning thread)
    // and coordinates through atomics so the gated scope itself runs
    // nothing but the flag handshake.
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};
    std::thread other([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        allocateOnce(1024);
        done.store(true, std::memory_order_release);
    });
    {
        erec::AllocGate gate(region);
        go.store(true, std::memory_order_release);
        while (!done.load(std::memory_order_acquire)) {
        }
        EXPECT_EQ(gate.allocsInScope(), 0u);
    }
    other.join();
    EXPECT_EQ(region.allocs(), 0u);
}

TEST(AllocTracker, ConcurrentGatesAccumulateExactly)
{
    erec::AllocRegion &region = testRegion();
    region.reset();

    constexpr int kThreads = 4;
    constexpr int kAllocsPerThread = 250;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&region] {
            for (int i = 0; i < kAllocsPerThread; ++i) {
                erec::AllocGate gate(region);
                allocateOnce(8);
            }
        });
    }
    for (auto &w : workers)
        w.join();

    // Each iteration performs exactly one new[]/delete[] inside its
    // gate, so the region total is exact — this is the assertion the
    // TSan job certifies for the relaxed-atomic accumulators.
    EXPECT_EQ(region.enters(),
              static_cast<std::uint64_t>(kThreads) * kAllocsPerThread);
    EXPECT_EQ(region.allocs(),
              static_cast<std::uint64_t>(kThreads) * kAllocsPerThread);
    EXPECT_GE(region.bytes(),
              static_cast<std::uint64_t>(kThreads) * kAllocsPerThread * 8);
}

} // namespace
