/**
 * @file
 * Tests for runtime::BatchQueue: pop() hands out one item at a time in
 * FIFO order, the capacity bound backpressures producers, and close()
 * drains cleanly. A pump helping the fork-join board instead of
 * waiting is covered by RuntimeServingTest.PumpFanOutRunsOnIdlePumps.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/runtime/batch_queue.h"

namespace erec::runtime {
namespace {

TEST(BatchQueueTest, PopsOneItemAtATimeInFifoOrder)
{
    BatchQueue<int> q({.capacity = 64});
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(q.push(i));
    EXPECT_EQ(q.depth(), 10u);

    std::vector<int> seen;
    int item = -1;
    while (seen.size() < 10) {
        ASSERT_EQ(q.pop(&item), PopStatus::Item);
        seen.push_back(item);
        EXPECT_EQ(q.depth(), 10u - seen.size());
    }
    std::vector<int> expect(10);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(seen, expect);
}

TEST(BatchQueueTest, CapacityBoundBackpressuresProducer)
{
    BatchQueue<int> q({.capacity = 2});
    std::atomic<int> produced{0};
    std::thread producer([&] {
        for (int i = 0; i < 10; ++i) {
            ASSERT_TRUE(q.push(i)); // Blocks while at capacity.
            produced.fetch_add(1, std::memory_order_relaxed);
        }
    });
    std::vector<int> seen;
    int item = -1;
    while (seen.size() < 10) {
        // The bound holds at every observation point.
        EXPECT_LE(q.depth(), 2u);
        ASSERT_EQ(q.pop(&item), PopStatus::Item);
        seen.push_back(item);
    }
    producer.join();
    EXPECT_EQ(produced.load(), 10);
    EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 45);
}

TEST(BatchQueueTest, CloseRejectsPushesAndDrainsBacklog)
{
    BatchQueue<int> q({.capacity = 64});
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(3)); // Rejected, not queued.
    int item = -1;
    ASSERT_EQ(q.pop(&item), PopStatus::Item);
    EXPECT_EQ(item, 1);
    ASSERT_EQ(q.pop(&item), PopStatus::Item);
    EXPECT_EQ(item, 2);
    EXPECT_EQ(q.pop(&item), PopStatus::Closed); // Closed and drained.
}

// The drain-then-empty shutdown contract (documented on pop): residual
// items queued before close() drain in FIFO order, and once drained
// every further pop reports Closed.
TEST(BatchQueueTest, ShutdownDrainsResidualItemsThenStaysEmpty)
{
    BatchQueue<int> q({.capacity = 64});
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(q.push(i));
    q.close();

    std::vector<int> seen;
    int item = -1;
    while (q.pop(&item) == PopStatus::Item)
        seen.push_back(item);

    std::vector<int> expected(10);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(seen, expected);

    // Drained is terminal: every subsequent pop reports Closed.
    EXPECT_EQ(q.pop(&item), PopStatus::Closed);
    EXPECT_EQ(q.pop(&item), PopStatus::Closed);
    // close() is idempotent and does not disturb the drained state.
    q.close();
    EXPECT_EQ(q.pop(&item), PopStatus::Closed);
}

TEST(BatchQueueTest, CloseWakesBlockedConsumer)
{
    BatchQueue<int> q({.capacity = 64});
    std::thread consumer([&q] {
        int item = -1;
        EXPECT_EQ(q.pop(&item), PopStatus::Closed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
    consumer.join();
}

TEST(BatchQueueTest, RejectsBadOptions)
{
    EXPECT_THROW(BatchQueue<int>({.capacity = 0}), ConfigError);
}

} // namespace
} // namespace erec::runtime
