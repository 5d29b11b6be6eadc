/**
 * @file
 * Tests for the discrete-event queue: time ordering, the documented
 * FIFO tie-break contract (determinism under permuted insertion),
 * boundary semantics and delay validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/sim/event_queue.h"

namespace erec::sim {
namespace {

/** Records every dispatched event in execution order. */
struct RecordingSink final : EventSink
{
    std::vector<EventRecord> events;

    void
    onEvent(const EventRecord &event) override
    {
        events.push_back(event);
    }
};

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue q;
    RecordingSink sink;
    q.schedule(30, EventType::kGeneric, 3);
    q.schedule(10, EventType::kGeneric, 1);
    q.schedule(20, EventType::kGeneric, 2);
    q.runUntil(100, sink);
    ASSERT_EQ(sink.events.size(), 3u);
    EXPECT_EQ(sink.events[0].a, 1u);
    EXPECT_EQ(sink.events[1].a, 2u);
    EXPECT_EQ(sink.events[2].a, 3u);
    EXPECT_EQ(q.now(), 100);
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, FifoAtSameTick)
{
    EventQueue q;
    RecordingSink sink;
    for (std::uint64_t i = 0; i < 5; ++i)
        q.schedule(10, EventType::kGeneric, i);
    q.runUntil(10, sink);
    ASSERT_EQ(sink.events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(sink.events[i].a, i);
}

TEST(EventQueueTest, TieBreakIsScheduleOrderUnderPermutedInsertion)
{
    // The contract: same-time events run in schedule() call order, no
    // matter how calls at *other* times interleave or how the heap
    // happens to lay records out. Interleave three timestamps in every
    // permutation of a fixed insertion pattern and require the
    // execution order to be identical each time.
    const std::vector<SimTime> times = {20, 10, 20, 30, 10, 20,
                                        30, 10, 30, 20, 10, 30};
    std::vector<std::size_t> perm(times.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = i;

    // Expected: stable sort of the pattern by time. Payload `a` below
    // is the schedule-call index, so within one timestamp the expected
    // `a` sequence is ascending call order.
    std::vector<std::vector<std::uint64_t>> seen;
    for (int round = 0; round < 24; ++round) {
        EventQueue q;
        RecordingSink sink;
        // A different insertion interleaving each round: rotate the
        // permutation, but schedule-call order *within* one timestamp
        // is always the order the rotated sequence visits it.
        std::rotate(perm.begin(), perm.begin() + 1, perm.end());
        std::vector<std::uint64_t> call_index_at(times.size());
        std::uint64_t call = 0;
        for (const std::size_t idx : perm) {
            call_index_at[idx] = call;
            q.schedule(times[idx], EventType::kGeneric, call);
            ++call;
        }
        q.runUntil(100, sink);
        ASSERT_EQ(sink.events.size(), times.size());
        // Within each timestamp, execution must follow call order.
        std::uint64_t prev_call = 0;
        SimTime prev_time = -1;
        for (const auto &ev : sink.events) {
            EXPECT_GE(ev.time, prev_time);
            if (ev.time == prev_time) {
                EXPECT_GT(ev.a, prev_call)
                    << "same-time events ran out of schedule order";
            }
            prev_time = ev.time;
            prev_call = ev.a;
        }
    }
}

TEST(EventQueueTest, EventsMayScheduleEvents)
{
    // A sink that reschedules: each kGeneric with a > 0 schedules a
    // follow-up at now + 5 with a - 1.
    struct Chain final : EventSink
    {
        EventQueue *q = nullptr;
        int fired = 0;

        void
        onEvent(const EventRecord &event) override
        {
            ++fired;
            if (event.a > 0)
                q->scheduleAfter(5, EventType::kGeneric, event.a - 1);
        }
    };
    EventQueue q;
    Chain sink;
    sink.q = &q;
    q.schedule(5, EventType::kGeneric, 1);
    q.runUntil(9, sink);
    EXPECT_EQ(sink.fired, 1);
    q.runUntil(10, sink);
    EXPECT_EQ(sink.fired, 2);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary)
{
    EventQueue q;
    RecordingSink sink;
    q.schedule(10, EventType::kGeneric);
    q.schedule(11, EventType::kGeneric);
    q.runUntil(10, sink); // inclusive boundary
    EXPECT_EQ(sink.events.size(), 1u);
    EXPECT_EQ(q.now(), 10);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, ClockNeverGoesBackwards)
{
    EventQueue q;
    RecordingSink sink;
    q.schedule(50, EventType::kGeneric);
    q.runUntil(100, sink);
    EXPECT_THROW(q.schedule(99, EventType::kGeneric), ConfigError);
    EXPECT_THROW(q.scheduleAfter(-1, EventType::kGeneric), ConfigError);
}

TEST(EventQueueTest, ScheduleAfterRejectsOverflowingDelay)
{
    EventQueue q;
    RecordingSink sink;
    q.schedule(100, EventType::kGeneric);
    q.runUntil(100, sink);
    // now + delay would wrap past SimTime's maximum: must throw, not
    // silently schedule in the past.
    EXPECT_THROW(
        q.scheduleAfter(std::numeric_limits<SimTime>::max() - 99,
                        EventType::kGeneric),
        ConfigError);
    // The largest representable delay is still accepted.
    q.scheduleAfter(std::numeric_limits<SimTime>::max() - 100,
                    EventType::kGeneric);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, RunOneReturnsFalseWhenEmpty)
{
    EventQueue q;
    RecordingSink sink;
    EXPECT_FALSE(q.runOne(sink));
    q.schedule(1, EventType::kGeneric);
    EXPECT_TRUE(q.runOne(sink));
    EXPECT_FALSE(q.runOne(sink));
    EXPECT_EQ(q.now(), 1);
}

TEST(EventQueueTest, PayloadWordsRoundTrip)
{
    EventQueue q;
    RecordingSink sink;
    q.schedule(1, EventType::kRpcArrive, 0xDEADBEEFu, 7u);
    q.runOne(sink);
    ASSERT_EQ(sink.events.size(), 1u);
    EXPECT_EQ(sink.events[0].type, EventType::kRpcArrive);
    EXPECT_EQ(sink.events[0].a, 0xDEADBEEFu);
    EXPECT_EQ(sink.events[0].b, 7u);
}

} // namespace
} // namespace erec::sim
