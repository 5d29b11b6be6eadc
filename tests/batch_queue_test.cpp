/**
 * @file
 * Tests for runtime::BatchQueue: coalescing respects maxBatchSize and
 * FIFO order, the linger delay flushes short batches, the capacity
 * bound backpressures producers, close() drains cleanly, and a
 * fork-join board's wake reaches an idle consumer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/runtime/batch_queue.h"
#include "elasticrec/runtime/fork_join.h"

namespace erec::runtime {
namespace {

BatchQueueOptions
opts(std::size_t capacity, std::size_t max_batch,
     std::chrono::microseconds delay)
{
    BatchQueueOptions o;
    o.capacity = capacity;
    o.maxBatchSize = max_batch;
    o.maxBatchDelay = delay;
    return o;
}

TEST(BatchQueueTest, CoalescesFifoUpToMaxBatchSize)
{
    BatchQueue<int> q(opts(64, 4, std::chrono::microseconds(0)));
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(q.push(i));
    EXPECT_EQ(q.depth(), 10u);

    std::vector<int> seen;
    std::vector<std::size_t> batch_sizes;
    std::vector<int> batch;
    while (seen.size() < 10) {
        q.popBatch(&batch);
        ASSERT_FALSE(batch.empty());
        ASSERT_LE(batch.size(), 4u);
        batch_sizes.push_back(batch.size());
        seen.insert(seen.end(), batch.begin(), batch.end());
    }
    // Everything queued, in order, with full batches first.
    const std::vector<int> expect = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    EXPECT_EQ(seen, expect);
    EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{4, 4, 2}));
    EXPECT_EQ(q.totalPushed(), 10u);
}

TEST(BatchQueueTest, LingerDelayCollectsLateArrivals)
{
    BatchQueue<int> q(opts(64, 4, std::chrono::milliseconds(200)));
    ASSERT_TRUE(q.push(1));
    std::thread late([&q] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        q.push(2);
        q.push(3);
    });
    // popBatch holds a short batch and lingers: the late pushes land
    // well inside the 200 ms window and must join this batch.
    std::vector<int> batch;
    q.popBatch(&batch);
    late.join();
    EXPECT_EQ(batch, (std::vector<int>{1, 2, 3}));
}

TEST(BatchQueueTest, ZeroDelayFlushesShortBatchImmediately)
{
    BatchQueue<int> q(opts(64, 8, std::chrono::microseconds(0)));
    ASSERT_TRUE(q.push(42));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<int> batch;
    q.popBatch(&batch);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(batch, (std::vector<int>{42}));
    EXPECT_LT(elapsed, std::chrono::seconds(5)); // No linger stall.
}

TEST(BatchQueueTest, FullBatchReturnsWithoutWaitingForDelay)
{
    // With maxBatchSize items already queued the linger must not run:
    // an (absurd) hour-long delay would hang the test otherwise.
    BatchQueue<int> q(opts(64, 2, std::chrono::hours(1)));
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    std::vector<int> batch;
    q.popBatch(&batch);
    EXPECT_EQ(batch, (std::vector<int>{1, 2}));
}

TEST(BatchQueueTest, CapacityBoundBackpressuresProducer)
{
    BatchQueue<int> q(opts(2, 2, std::chrono::microseconds(0)));
    std::atomic<int> produced{0};
    std::thread producer([&] {
        for (int i = 0; i < 10; ++i) {
            ASSERT_TRUE(q.push(i)); // Blocks while at capacity.
            produced.fetch_add(1, std::memory_order_relaxed);
        }
    });
    std::vector<int> seen;
    std::vector<int> batch;
    while (seen.size() < 10) {
        // The bound holds at every observation point.
        EXPECT_LE(q.depth(), 2u);
        q.popBatch(&batch);
        seen.insert(seen.end(), batch.begin(), batch.end());
    }
    producer.join();
    EXPECT_EQ(produced.load(), 10);
    EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 45);
}

TEST(BatchQueueTest, CloseRejectsPushesAndDrainsBacklog)
{
    BatchQueue<int> q(opts(64, 4, std::chrono::microseconds(0)));
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(3)); // Rejected, not queued.
    std::vector<int> batch;
    q.popBatch(&batch);
    EXPECT_EQ(batch, (std::vector<int>{1, 2}));
    q.popBatch(&batch);
    EXPECT_TRUE(batch.empty()); // Closed and drained.
    EXPECT_EQ(q.totalPushed(), 2u);
}

// The drain-then-empty shutdown contract (documented on popBatch):
// residual items queued before close() drain in FIFO order across as
// many batches as needed, post-close pops never linger for
// maxBatchDelay, and once drained every further pop returns empty.
TEST(BatchQueueTest, ShutdownDrainsResidualItemsThenStaysEmpty)
{
    // A long linger delay that a post-close pop must NOT pay.
    BatchQueue<int> q(opts(64, 4, std::chrono::seconds(5)));
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(q.push(i));
    q.close();

    std::vector<int> seen;
    std::vector<int> batch;
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        q.popBatch(&batch);
        if (batch.empty())
            break;
        EXPECT_LE(batch.size(), 4u);
        seen.insert(seen.end(), batch.begin(), batch.end());
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;

    std::vector<int> expected(10);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(seen, expected);
    // 10 items / maxBatchSize 4 => a short final batch of 2, which a
    // closed queue must flush immediately instead of waiting out the
    // 5 s delay for producers that can never arrive.
    EXPECT_LT(elapsed, std::chrono::seconds(1));

    // Drained is terminal: every subsequent pop is empty.
    q.popBatch(&batch);
    EXPECT_TRUE(batch.empty());
    q.popBatch(&batch);
    EXPECT_TRUE(batch.empty());
    // close() is idempotent and does not disturb the drained state.
    q.close();
    q.popBatch(&batch);
    EXPECT_TRUE(batch.empty());
}

TEST(BatchQueueTest, CloseWakesBlockedConsumer)
{
    BatchQueue<int> q(opts(64, 4, std::chrono::microseconds(0)));
    std::thread consumer([&q] {
        std::vector<int> batch;
        q.popBatch(&batch);
        EXPECT_TRUE(batch.empty());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
    consumer.join();
}

TEST(BatchQueueTest, BoardWakeReachesIdleConsumerPastLingeringOne)
{
    // A consumer lingering for a second item and an idle consumer wait
    // on the same condition variable, the lingering one longer. A
    // fork-join publish must still bring the idle one in, even when
    // its wake lands on the lingering one.
    ForkJoinBoard board;
    BatchQueue<int> q(opts(8, 2, std::chrono::seconds(30)), &board);
    ASSERT_TRUE(q.push(1));
    std::vector<int> lingered;
    std::thread lingering([&] { q.popBatch(&lingered); });
    // The consumer holds the queue mutex from taking the item until it
    // waits, so depth() == 0 means it is lingering.
    while (q.depth() != 0)
        std::this_thread::yield();
    std::thread idle([&] {
        std::vector<int> batch;
        while (q.popBatch(&batch))
            if (batch.empty())
                board.helpOne();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Each index waits for the other to start, so they run on two
    // threads only if the idle consumer joins in.
    std::thread::id ran[2];
    std::atomic<int> started{0};
    board.parallelFor(2, [&](std::size_t i) {
        ran[i] = std::this_thread::get_id();
        ++started;
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started < 2 && std::chrono::steady_clock::now() < until)
            std::this_thread::yield();
    });
    EXPECT_NE(ran[0], ran[1]);
    q.close();
    lingering.join();
    idle.join();
    EXPECT_EQ(lingered, std::vector<int>{1});
}

TEST(BatchQueueTest, RejectsBadOptions)
{
    EXPECT_THROW(BatchQueue<int>(
                     opts(0, 4, std::chrono::microseconds(0))),
                 ConfigError);
    EXPECT_THROW(BatchQueue<int>(
                     opts(4, 0, std::chrono::microseconds(0))),
                 ConfigError);
    EXPECT_THROW(BatchQueue<int>(
                     opts(4, 4, std::chrono::microseconds(-1))),
                 ConfigError);
}

} // namespace
} // namespace erec::runtime
