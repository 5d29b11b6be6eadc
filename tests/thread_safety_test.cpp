/**
 * @file
 * Concurrency test for the mutex-protected logging sink, the
 * annotated-mutex exercise of the thread-annotation layer. It mostly
 * exists to give TSan builds (-DELASTICREC_SANITIZE=thread) real
 * cross-thread traffic to check; single-threaded correctness is
 * covered by logging_test.cpp.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "elasticrec/common/logging.h"

namespace erec {
namespace {

TEST(ThreadSafetyTest, ConcurrentLoggingThroughSink)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Info);
    std::atomic<std::size_t> records{0};
    std::atomic<std::size_t> bytes{0};
    setLogSink([&records, &bytes](LogLevel, const std::string &msg) {
        // Touch the payload so a torn message is visible to TSan.
        bytes.fetch_add(msg.size(), std::memory_order_relaxed);
        records.fetch_add(1, std::memory_order_relaxed);
    });

    constexpr int kThreads = 8;
    constexpr int kPerThread = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i)
                ERC_LOG_INFO << "t" << t << "-i" << i;
        });
    }
    // Churn the level and the sink's serialization from the main thread
    // while workers log.
    for (int i = 0; i < 100; ++i)
        setLogLevel(LogLevel::Info);
    for (auto &th : threads)
        th.join();

    setLogSink(nullptr);
    setLogLevel(before);
    EXPECT_EQ(records.load(), static_cast<std::size_t>(kThreads) *
                                  kPerThread);
    EXPECT_GT(bytes.load(), 0u);
}

} // namespace
} // namespace erec
