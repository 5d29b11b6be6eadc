/**
 * @file
 * Integration tests for the concurrent serving runtime: the executor
 * determinism contract (serial mode byte-identical to the pre-executor
 * path, concurrent mode bit-identical to serial), the worker threads
 * a dispatcher owns, the dispatcher's one-query-per-pop scheduling and
 * drain, and a many-client stress run that gives TSan a real
 * concurrent serving workload to chew on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "elasticrec/cluster/scheduler.h"
#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/logging.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/runtime/executor.h"
#include "elasticrec/serving/stack_builder.h"

namespace erec::serving {
namespace {

model::DlrmConfig
tinyConfig()
{
    auto c = model::rm1();
    c.name = "tiny";
    c.rowsPerTable = 500;
    c.numTables = 3;
    c.poolingFactor = 6;
    c.batchSize = 4;
    return c;
}

workload::Query
makeQuery(const model::DlrmConfig &config, std::uint64_t seed)
{
    workload::QueryShape shape;
    shape.batchSize = config.batchSize;
    shape.numTables = config.numTables;
    shape.gathersPerItem = config.poolingFactor;
    workload::QueryGenerator gen(
        shape,
        std::make_shared<workload::LocalityDistribution>(
            config.rowsPerTable, 0.9),
        seed);
    return gen.next();
}

/** One plan per table of tinyConfig(): 1, 2 and 3 shards. */
std::vector<TablePlan>
unevenPlans()
{
    return {TablePlan{.boundaries = {500}},
            TablePlan{.boundaries = {100, 500}},
            TablePlan{.boundaries = {10, 100, 500}}};
}

ElasticRecStack
makeStack(const std::shared_ptr<const model::Dlrm> &dlrm,
          std::size_t workers, bool with_executor = true,
          std::vector<TablePlan> plans = {
              TablePlan{.boundaries = {10, 100, 500}}})
{
    StackOptions options;
    options.observability = std::make_shared<obs::Registry>();
    if (with_executor) {
        runtime::ExecutorOptions exec_opts;
        exec_opts.workers = workers;
        options.executor =
            std::make_shared<runtime::Executor>(exec_opts);
    }
    return buildElasticRecStack(dlrm, std::move(plans), options);
}

TEST(RuntimeServingTest, SerialExecutorByteIdenticalToNoExecutorPath)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto plain = makeStack(dlrm, 0, /*with_executor=*/false);
    auto serial = makeStack(dlrm, 0);
    ASSERT_TRUE(serial.executor->serial());
    ASSERT_NE(serial.dispatcher, nullptr);

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto q = makeQuery(config, seed);
        const auto expect = plain.frontend->serve(q);
        const auto got = serial.submit(q).get();
        ASSERT_EQ(expect.size(), got.size());
        // Exact float equality: the serial executor must not change a
        // single bit relative to the pre-executor serving path.
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_EQ(expect[i], got[i]) << "seed " << seed;
    }
}

TEST(RuntimeServingTest, ConcurrentGathersBitIdenticalToSerial)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto serial = makeStack(dlrm, 0);
    auto concurrent = makeStack(dlrm, 2);
    ASSERT_FALSE(concurrent.executor->serial());

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto q = makeQuery(config, seed);
        const auto expect = serial.submit(q).get();
        const auto got = concurrent.submit(q).get();
        ASSERT_EQ(expect.size(), got.size());
        // Parallel per-shard partials are merged in fixed shard order,
        // so even FP accumulation must match bit for bit.
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_EQ(expect[i], got[i]) << "seed " << seed;
    }
}

TEST(RuntimeServingTest, UnevenShardCountsBitIdenticalToSerial)
{
    // Tables of 1, 2 and 3 shards give every table a different shard
    // offset into the per-(table, shard) partial slots.
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto serial = makeStack(dlrm, 0, true, unevenPlans());
    auto concurrent = makeStack(dlrm, 4, true, unevenPlans());

    std::vector<std::future<std::vector<float>>> futures;
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        futures.push_back(concurrent.submit(makeQuery(config, seed)));
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        const auto q = makeQuery(config, seed);
        const auto expect = serial.submit(q).get();
        const auto got = futures[seed - 1].get();
        // An external thread may fork-join on the executor while its
        // workers all run pump loops.
        const auto direct = concurrent.frontend->serve(q);
        ASSERT_EQ(expect.size(), got.size());
        ASSERT_EQ(expect.size(), direct.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(expect[i], got[i]) << "seed " << seed;
            EXPECT_EQ(expect[i], direct[i]) << "seed " << seed;
        }
    }
}

TEST(RuntimeServingTest, PumpFanOutRunsOnIdlePumps)
{
    // The serve function runs on a pump; its parallelFor must spread
    // over the two pumps that have no query to serve.
    runtime::ExecutorOptions exec_opts;
    exec_opts.workers = 3;
    auto executor = std::make_shared<runtime::Executor>(exec_opts);
    std::mutex mu;
    std::set<std::thread::id> threads;
    QueryDispatcher dispatcher(
        [&](const workload::Query &) {
            executor->parallelFor(6, [&](std::size_t) {
                {
                    const std::lock_guard<std::mutex> lock(mu);
                    threads.insert(std::this_thread::get_id());
                }
                // Long enough that a woken pump claims an index before
                // the caller has run all six.
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            });
            return std::vector<float>(1, 0.0f);
        },
        executor);
    // A pump that has not reached its first wait yet does not count
    // as idle, so the first queries may run inline.
    for (std::uint64_t seed = 1;
         seed <= 50 && executor->stats().helpedItems == 0; ++seed)
        dispatcher.submit(makeQuery(tinyConfig(), seed)).get();
    dispatcher.drain();
    EXPECT_GE(threads.size(), 2u);
    EXPECT_GT(executor->stats().helpedItems, 0u);
}

TEST(RuntimeServingTest, BackedUpQueryGoesToTheNextFreePump)
{
    // Queries 1 and 2 hold both pumps; 3 and 4 queue behind them.
    // Releasing 1 lets its pump take 3, which blocks in serve.
    // Releasing 2 must then serve 4 on the other pump while 3 is still
    // held: a queued query waits for a free pump, never behind another
    // query popped before it.
    runtime::ExecutorOptions exec_opts;
    exec_opts.workers = 2;
    auto executor = std::make_shared<runtime::Executor>(exec_opts);
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::uint64_t> entered;
    std::set<std::uint64_t> released;
    QueryDispatcher dispatcher(
        [&](const workload::Query &q) {
            std::unique_lock<std::mutex> lock(mu);
            entered.insert(q.id);
            cv.notify_all();
            // Bounded, so a failing run ends instead of hanging.
            if (q.id != 4)
                cv.wait_for(lock, std::chrono::seconds(10), [&] {
                    return released.count(q.id) > 0;
                });
            return std::vector<float>(1, static_cast<float>(q.id));
        },
        executor);
    const auto submit = [&](std::uint64_t id) {
        auto q = makeQuery(tinyConfig(), id);
        q.id = id;
        return dispatcher.submit(std::move(q));
    };
    const auto waitEntered = [&](std::uint64_t id) {
        std::unique_lock<std::mutex> lock(mu);
        return cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return entered.count(id) > 0; });
    };
    const auto release = [&](std::uint64_t id) {
        const std::lock_guard<std::mutex> lock(mu);
        released.insert(id);
        cv.notify_all();
    };

    auto f1 = submit(1);
    ASSERT_TRUE(waitEntered(1));
    auto f2 = submit(2);
    ASSERT_TRUE(waitEntered(2));
    auto f3 = submit(3);
    auto f4 = submit(4);
    release(1);
    ASSERT_TRUE(waitEntered(3));
    release(2);
    EXPECT_EQ(f4.wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
    EXPECT_EQ(f3.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    release(3);
    EXPECT_EQ(f1.get(), std::vector<float>{1.0f});
    EXPECT_EQ(f2.get(), std::vector<float>{2.0f});
    EXPECT_EQ(f3.get(), std::vector<float>{3.0f});
    EXPECT_EQ(f4.get(), std::vector<float>{4.0f});
    dispatcher.drain();
    EXPECT_EQ(dispatcher.queriesServed(), 4u);
}

TEST(RuntimeServingTest, ParallelForRethrowsAHelpersException)
{
    // Query 1's serve fans out over the two idle pumps; only indices
    // run off the serving pump throw, so the exception must travel
    // from a helper to the caller and out through the query's future.
    // Query 2's serve covers a fresh index space once.
    runtime::ExecutorOptions exec_opts;
    exec_opts.workers = 3;
    auto executor = std::make_shared<runtime::Executor>(exec_opts);
    std::vector<std::atomic<int>> hits(16);
    QueryDispatcher dispatcher(
        [&](const workload::Query &q) {
            if (q.id == 1) {
                const auto caller = std::this_thread::get_id();
                executor->parallelFor(8, [&](std::size_t) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                    if (std::this_thread::get_id() != caller)
                        throw std::runtime_error("helper boom");
                });
            } else {
                executor->parallelFor(hits.size(), [&hits](std::size_t i) {
                    hits[i].fetch_add(1, std::memory_order_relaxed);
                });
            }
            return std::vector<float>(1, 0.0f);
        },
        executor);
    const auto serve = [&](std::uint64_t id) {
        auto q = makeQuery(tinyConfig(), id);
        q.id = id;
        return dispatcher.submit(std::move(q)).get();
    };
    // Pumps that have not reached their first wait are not idle yet,
    // so an early call may run inline and not throw.
    for (int attempt = 0;
         attempt < 50 && executor->stats().helpedItems == 0; ++attempt) {
        bool threw = false;
        try {
            serve(1);
        } catch (const std::runtime_error &) {
            threw = true;
        }
        EXPECT_EQ(threw, executor->stats().helpedItems > 0);
    }
    EXPECT_GT(executor->stats().helpedItems, 0u);
    // The pumps survived and the executor still fans out.
    serve(2);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(RuntimeServingTest, ParallelForOverWholeQueriesMatchesSerial)
{
    // Indices that serve whole queries, while the pumps serve
    // dispatcher traffic: a pump joining its own query's fan-out may
    // run one of these indices, i.e. a second serve() nested on the
    // same thread, which must not share the outer call's scratch.
    // Heavy lookups make table jobs long enough that a joiner sleeps
    // and a publish wakes it to help.
    auto config = tinyConfig();
    config.poolingFactor = 400;
    config.batchSize = 8;
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto serial = makeStack(dlrm, 0);
    auto stack = makeStack(dlrm, 3);
    constexpr std::size_t kQueries = 24;
    constexpr std::uint64_t kSubmitted = 256;
    std::vector<std::vector<float>> got(kQueries);
    std::vector<std::future<std::vector<float>>> futures;
    std::thread client([&] {
        for (std::uint64_t seed = 1; seed <= kSubmitted; ++seed)
            futures.push_back(stack.submit(makeQuery(config, 1000 + seed)));
    });
    for (int round = 0; round < 12; ++round) {
        stack.executor->parallelFor(kQueries, [&](std::size_t i) {
            got[i] = stack.frontend->serve(makeQuery(config, i + 1));
        });
        for (std::size_t i = 0; i < kQueries; ++i)
            EXPECT_EQ(serial.frontend->serve(makeQuery(config, i + 1)),
                      got[i])
                << "query " << i;
    }
    client.join();
    for (std::uint64_t seed = 1; seed <= kSubmitted; ++seed)
        EXPECT_EQ(serial.frontend->serve(makeQuery(config, 1000 + seed)),
                  futures[seed - 1].get())
            << "submitted query " << seed;
}

TEST(RuntimeServingTest, PoisonedQueryFailsOnlyItself)
{
    // A query ID past the table's rows makes the Bucketizer throw
    // inside a table job, which may run on any of the three pumps.
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto serial = makeStack(dlrm, 0);
    auto stack = makeStack(dlrm, 3);

    constexpr std::uint64_t kQueries = 12;
    constexpr std::uint64_t kPoisoned = 5;
    std::vector<std::future<std::vector<float>>> futures;
    for (std::uint64_t seed = 1; seed <= kQueries; ++seed) {
        auto q = makeQuery(config, seed);
        if (seed == kPoisoned)
            q.lookups[1].indices[0] =
                static_cast<std::uint32_t>(config.rowsPerTable + 7);
        futures.push_back(stack.submit(std::move(q)));
    }
    for (std::uint64_t seed = 1; seed <= kQueries; ++seed) {
        auto &fut = futures[seed - 1];
        if (seed == kPoisoned) {
            EXPECT_THROW(fut.get(), ConfigError);
            continue;
        }
        const auto expect = serial.submit(makeQuery(config, seed)).get();
        const auto got = fut.get();
        ASSERT_EQ(expect.size(), got.size());
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_EQ(expect[i], got[i]) << "seed " << seed;
    }
    // Every pump is still serving.
    for (std::uint64_t seed = 100; seed < 106; ++seed)
        EXPECT_FALSE(stack.submit(makeQuery(config, seed)).get().empty());
    stack.dispatcher->drain();
    EXPECT_EQ(stack.dispatcher->queriesServed(), kQueries + 6);
}

TEST(RuntimeServingTest, SteadyStateServingDoesNotAllocateInGates)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto stack = makeStack(dlrm, 2);

    // Warm-up: the first queries bring each pump's job slot and the
    // per-thread serving state to steady-state capacity.
    // (drain() is terminal, so quiesce by getting every future: a
    // pump has finished its pop before the query's future resolves.)
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        stack.submit(makeQuery(config, seed)).get();

    // Steady state: every AllocGate region (queue push/pop,
    // dispatcher pump bookkeeping, embedding gathers) must
    // observe zero allocations — the dynamic form of the erec_analyze hotpath
    // static contract, and the claim behind the bench's
    // allocs_per_query=0 perf-gate override.
    resetAllocRegionStats();
    for (std::uint64_t seed = 100; seed < 132; ++seed)
        stack.submit(makeQuery(config, seed)).get();
    stack.dispatcher->drain();

    std::uint64_t enters = 0;
    for (const auto &r : allocRegionStats()) {
        EXPECT_EQ(r.allocs, 0u) << "region " << r.name
                                << " allocated on the steady path";
        enters += r.enters;
    }
    // Prove the gates were exercised rather than trivially idle.
    EXPECT_GT(enters, 0u);
}

TEST(RuntimeServingTest, ManyClientsStressConcurrentStack)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto stack = makeStack(dlrm, 2);
    // Size probe through the dispatcher; it counts as a served query.
    const std::size_t out_size =
        stack.submit(makeQuery(config, 99)).get().size();

    constexpr int kClients = 4;
    constexpr int kQueriesPerClient = 32;
    std::atomic<int> bad{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (int i = 0; i < kQueriesPerClient; ++i) {
                const auto q = makeQuery(
                    config,
                    static_cast<std::uint64_t>(c * 1000 + i + 1));
                const auto out = stack.submit(q).get();
                if (out.size() != out_size)
                    bad.fetch_add(1, std::memory_order_relaxed);
            }
        });
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(bad.load(), 0);

    stack.dispatcher->drain();
    // Client queries plus the one size probe.
    EXPECT_EQ(stack.dispatcher->queriesServed(),
              static_cast<std::uint64_t>(kClients * kQueriesPerClient) +
                  1);
    // Publishing the runtime stats must land the executor and
    // dispatcher gauge families in the registry.
    stack.publishStats();
    const auto text = obs::toPrometheusText(*stack.observability);
    EXPECT_NE(text.find("erec_executor_workers"), std::string::npos);
    EXPECT_NE(text.find("erec_executor_helped_items"), std::string::npos);
    EXPECT_NE(text.find("erec_serving_queries_served"),
              std::string::npos);
    EXPECT_NE(text.find("erec_serving_queue_depth"), std::string::npos);
}

TEST(RuntimeServingTest, DispatcherSurfacesServeExceptions)
{
    runtime::ExecutorOptions exec_opts;
    exec_opts.workers = 1;
    auto executor = std::make_shared<runtime::Executor>(exec_opts);
    QueryDispatcher dispatcher(
        [](const workload::Query &) -> std::vector<float> {
            throw std::runtime_error("serve boom");
        },
        executor);
    auto fut = dispatcher.submit(makeQuery(tinyConfig(), 1));
    EXPECT_THROW(fut.get(), std::runtime_error);
    dispatcher.drain();
    EXPECT_EQ(dispatcher.queriesServed(), 1u);
}

TEST(RuntimeServingTest, ParallelForCoversIndexSpaceOnceEachMode)
{
    // Serial mode loops inline on the submitting thread; with two
    // workers the serving pump shares the indices with the idle one.
    for (const std::size_t workers : {0UL, 2UL}) {
        runtime::ExecutorOptions exec_opts;
        exec_opts.workers = workers;
        auto executor = std::make_shared<runtime::Executor>(exec_opts);
        std::vector<std::atomic<int>> hits(97);
        QueryDispatcher dispatcher(
            [&](const workload::Query &) {
                executor->parallelFor(hits.size(), [&hits](std::size_t i) {
                    hits[i].fetch_add(1, std::memory_order_relaxed);
                });
                return std::vector<float>(1, 0.0f);
            },
            executor);
        dispatcher.submit(makeQuery(tinyConfig(), 1)).get();
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "workers=" << workers;
    }
}

TEST(RuntimeServingTest, WorkerThreadsRunTheLoopOncePerThread)
{
    std::mutex mu;
    std::vector<std::thread::id> ran;
    runtime::WorkerThreads threads(3, [&] {
        const std::lock_guard<std::mutex> lock(mu);
        ran.push_back(std::this_thread::get_id());
    });
    threads.join();
    ASSERT_EQ(ran.size(), 3u);
    const std::set<std::thread::id> distinct(ran.begin(), ran.end());
    EXPECT_EQ(distinct.size(), 3u);
    EXPECT_EQ(distinct.count(std::this_thread::get_id()), 0u);
}

TEST(RuntimeServingTest, WorkerThreadsJoinOnDestruction)
{
    std::atomic<int> running{0};
    std::atomic<int> finished{0};
    {
        runtime::WorkerThreads threads(4, [&] {
            running.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            running.fetch_sub(1);
            finished.fetch_add(1);
        });
    }
    EXPECT_EQ(running.load(), 0);
    EXPECT_EQ(finished.load(), 4);
    // A failure nobody joined for is logged, not lost.
    std::vector<std::string> logged;
    setLogSink([&logged](LogLevel, const std::string &msg) {
        logged.push_back(msg);
    });
    {
        const runtime::WorkerThreads threads(
            1, [] { throw std::runtime_error("unjoined boom"); });
    }
    setLogSink(nullptr);
    ASSERT_EQ(logged.size(), 1u);
    EXPECT_NE(logged[0].find("unjoined boom"), std::string::npos);
}

TEST(RuntimeServingTest, WorkerThreadsRethrowALoopsExceptionToTheJoiner)
{
    std::atomic<int> calls{0};
    runtime::WorkerThreads threads(3, [&] {
        if (calls.fetch_add(1) == 1)
            throw std::runtime_error("loop boom");
    });
    EXPECT_THROW(threads.join(), std::runtime_error);
    // Every other loop still ran, and the exception is rethrown once.
    EXPECT_EQ(calls.load(), 3);
    EXPECT_NO_THROW(threads.join());
}

TEST(RuntimeServingTest, DrainServesEveryQueuedQuery)
{
    // Query 1 holds the only pump while 2..8 queue behind it; drain()
    // starts while they are queued and must serve all of them before
    // it returns.
    runtime::ExecutorOptions exec_opts;
    exec_opts.workers = 1;
    auto executor = std::make_shared<runtime::Executor>(exec_opts);
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
    QueryDispatcher dispatcher(
        [&](const workload::Query &q) {
            if (q.id == 1) {
                std::unique_lock<std::mutex> lock(mu);
                entered = true;
                cv.notify_all();
                // Bounded, so a failing run ends instead of hanging.
                cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return released; });
            }
            return std::vector<float>(1, static_cast<float>(q.id));
        },
        executor);
    constexpr std::uint64_t kQueries = 8;
    std::vector<std::future<std::vector<float>>> futures;
    for (std::uint64_t id = 1; id <= kQueries; ++id) {
        auto q = makeQuery(tinyConfig(), id);
        q.id = id;
        futures.push_back(dispatcher.submit(std::move(q)));
        if (id == 1) {
            std::unique_lock<std::mutex> lock(mu);
            EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                                    [&] { return entered; }));
        }
    }
    std::atomic<bool> drain_returned{false};
    std::size_t ready_at_return = 0;
    std::thread drainer([&] {
        dispatcher.drain();
        drain_returned.store(true);
        for (auto &f : futures)
            if (f.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)
                ++ready_at_return;
    });
    // Let drain() close the queue while 2..8 are still queued.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(drain_returned.load());
    {
        const std::lock_guard<std::mutex> lock(mu);
        released = true;
        cv.notify_all();
    }
    drainer.join();
    EXPECT_EQ(ready_at_return, kQueries);
    for (std::uint64_t id = 1; id <= kQueries; ++id)
        EXPECT_EQ(futures[id - 1].get(),
                  std::vector<float>{static_cast<float>(id)});
    EXPECT_EQ(dispatcher.queriesServed(), kQueries);
}

TEST(RuntimeServingTest, TwoDispatchersShareOneExecutor)
{
    // Each dispatcher runs its own pumps, so B serves while A is live.
    // Were B's pumps to wait for threads A holds, B's query would wait
    // until A drained: A is built first but B declared first, so a
    // failed wait below returns, A drains first and B then finishes,
    // instead of the test hanging.
    runtime::ExecutorOptions exec_opts;
    exec_opts.workers = 2;
    auto executor = std::make_shared<runtime::Executor>(exec_opts);
    const auto echo = [](const workload::Query &q) {
        return std::vector<float>(1, static_cast<float>(q.id));
    };
    const auto query = [](std::uint64_t id) {
        auto q = makeQuery(tinyConfig(), id);
        q.id = id;
        return q;
    };
    std::unique_ptr<QueryDispatcher> b;
    QueryDispatcher a(echo, executor);
    b = std::make_unique<QueryDispatcher>(echo, executor);
    auto fb = b->submit(query(2));
    ASSERT_EQ(fb.wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
    EXPECT_EQ(fb.get(), std::vector<float>{2.0f});
    EXPECT_EQ(a.submit(query(1)).get(), std::vector<float>{1.0f});
}

TEST(RuntimeServingTest, ExecutorOptionsFollowShardCpuRequest)
{
    core::ShardSpec spec;
    spec.cpuCores = 3;
    EXPECT_EQ(cluster::executorOptionsFor(spec).workers, 3u);
    spec.cpuCores = 0; // Fractional-core requests round up to one.
    EXPECT_EQ(cluster::executorOptionsFor(spec).workers, 1u);
}

} // namespace
} // namespace erec::serving
