/**
 * @file
 * Tests for the query arena: slot recycling without aliasing, fan-in
 * leg accounting, dead-query semantics, and allocation-free reuse.
 */

#include <gtest/gtest.h>

#include <vector>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/sim/query_arena.h"

namespace erec::sim {
namespace {

TEST(QueryArenaTest, AllocateInitializesEveryField)
{
    QueryArena arena;
    const auto slot =
        arena.allocate(123, 3, obs::TraceContext{});
    EXPECT_EQ(arena.arrival(slot), 123);
    EXPECT_EQ(arena.lastDone(slot), 0);
    EXPECT_FALSE(arena.dead(slot));
    EXPECT_FALSE(arena.root(slot).sampled());
    EXPECT_EQ(arena.liveCount(), 1u);
}

TEST(QueryArenaTest, LegAccountingReleasesOnLastLeg)
{
    QueryArena arena;
    const auto slot =
        arena.allocate(10, 3, obs::TraceContext{});
    arena.noteDone(slot, 50);
    EXPECT_FALSE(arena.accountLeg(slot));
    arena.noteDone(slot, 40); // earlier leg must not regress lastDone
    EXPECT_FALSE(arena.accountLeg(slot));
    arena.noteDone(slot, 90);
    EXPECT_TRUE(arena.accountLeg(slot));
    EXPECT_EQ(arena.lastDone(slot), 90);
    arena.release(slot);
    EXPECT_EQ(arena.liveCount(), 0u);
}

TEST(QueryArenaTest, ReuseDoesNotAliasLiveSlots)
{
    QueryArena arena;
    const auto a = arena.allocate(1, 1, obs::TraceContext{});
    const auto b = arena.allocate(2, 2, obs::TraceContext{});
    EXPECT_NE(a, b);
    arena.noteDone(a, 100);
    arena.release(a);
    // The recycled slot re-initializes; the live slot is untouched.
    const auto c = arena.allocate(3, 1, obs::TraceContext{});
    EXPECT_EQ(c, a); // LIFO free list hands the hot slot back
    EXPECT_EQ(arena.arrival(c), 3);
    EXPECT_EQ(arena.lastDone(c), 0);
    EXPECT_EQ(arena.arrival(b), 2);
    EXPECT_FALSE(arena.accountLeg(b));
    EXPECT_TRUE(arena.accountLeg(b));
}

TEST(QueryArenaTest, DeadSlotStaysDeadUntilReleased)
{
    QueryArena arena;
    const auto slot =
        arena.allocate(5, 2, obs::TraceContext{});
    arena.markDead(slot);
    EXPECT_FALSE(arena.accountLeg(slot));
    EXPECT_TRUE(arena.dead(slot));
    EXPECT_TRUE(arena.accountLeg(slot));
    arena.release(slot);
    // Recycled: the dead flag must not leak into the next query.
    const auto next =
        arena.allocate(6, 1, obs::TraceContext{});
    EXPECT_EQ(next, slot);
    EXPECT_FALSE(arena.dead(next));
}

TEST(QueryArenaTest, GrowthPreservesLiveSlots)
{
    QueryArena arena;
    std::vector<std::uint32_t> slots;
    // Far past the initial capacity: force several doublings while
    // every slot stays live.
    for (SimTime i = 0; i < 1000; ++i)
        slots.push_back(
            arena.allocate(i, 1, obs::TraceContext{}));
    ASSERT_GE(arena.capacity(), 1000u);
    for (SimTime i = 0; i < 1000; ++i)
        EXPECT_EQ(arena.arrival(slots[static_cast<std::size_t>(i)]), i);
    EXPECT_EQ(arena.liveCount(), 1000u);
}

TEST(QueryArenaTest, SteadyStateRecyclingDoesNotAllocate)
{
    QueryArena arena;
    static AllocRegion region("test.query_arena");
    // Warm up: reach the peak in-flight population once.
    std::vector<std::uint32_t> warm;
    for (SimTime i = 0; i < 100; ++i)
        warm.push_back(
            arena.allocate(i, 1, obs::TraceContext{}));
    for (const auto s : warm)
        arena.release(s);
    region.reset();
    std::vector<std::uint32_t> live;
    live.reserve(100);
    {
        AllocGate gate(region);
        for (int round = 0; round < 50; ++round) {
            live.clear();
            for (SimTime i = 0; i < 100; ++i)
                live.push_back(arena.allocate(
                    i, 1, obs::TraceContext{}));
            for (const auto s : live)
                arena.release(s);
        }
    }
    EXPECT_EQ(region.allocs(), 0u);
}

} // namespace
} // namespace erec::sim
