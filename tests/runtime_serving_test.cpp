/**
 * @file
 * Integration tests for the concurrent serving runtime: the executor
 * determinism contract (serial mode byte-identical to the pre-executor
 * path, concurrent mode bit-identical to serial), the dispatcher's
 * batching statistics, and a many-client stress run that gives TSan a
 * real concurrent serving workload to chew on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "elasticrec/cluster/deployment.h"
#include "elasticrec/common/alloc_tracker.h"
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

ElasticRecStack
makeStack(const std::shared_ptr<const model::Dlrm> &dlrm,
          std::size_t workers, bool with_executor = true)
{
    StackOptions options;
    options.observability = std::make_shared<obs::Registry>();
    if (with_executor) {
        runtime::ExecutorOptions exec_opts;
        exec_opts.workers = workers;
        exec_opts.maxBatchSize = 4;
        exec_opts.maxBatchDelayUs = 100;
        options.executor =
            std::make_shared<runtime::Executor>(exec_opts);
    }
    return buildElasticRecStack(
        dlrm, {TablePlan{.boundaries = {10, 100, 500}}}, options);
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

TEST(RuntimeServingTest, SteadyStateServingDoesNotAllocateInGates)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto stack = makeStack(dlrm, 2);

    // Warm-up: the first queries grow the batch buffers, queue ring
    // and pool slots to steady-state capacity.
    // (drain() is terminal, so quiesce by getting every future: the
    // pump has finished a batch before its futures resolve.)
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        stack.submit(makeQuery(config, seed)).get();

    // Steady state: every AllocGate region (queue push/pop, pool
    // dequeue, dispatcher pump bookkeeping, embedding gathers) must
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
    // Size probe goes through the dispatcher too: with pump loops
    // occupying the pool, an external thread must not call the
    // frontend's parallelFor path directly (see QueryDispatcher docs).
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
    const auto hist = stack.dispatcher->batchSizeHistogram();
    std::uint64_t hist_batches = 0, hist_queries = 0;
    for (std::size_t k = 0; k < hist.size(); ++k) {
        hist_batches += hist[k];
        hist_queries += hist[k] * (k + 1);
    }
    EXPECT_EQ(hist_batches, stack.dispatcher->batchesServed());
    EXPECT_EQ(hist_queries, stack.dispatcher->queriesServed());
    EXPECT_GE(stack.dispatcher->meanBatchSize(), 1.0);

    // Publishing the runtime stats must land the executor and
    // dispatcher gauge families in the registry.
    stack.publishStats();
    const auto text = obs::toPrometheusText(*stack.observability);
    EXPECT_NE(text.find("erec_executor_workers"), std::string::npos);
    EXPECT_NE(text.find("erec_serving_queries_served"),
              std::string::npos);
    EXPECT_NE(text.find("erec_serving_batches"), std::string::npos);
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
    for (const std::size_t workers : {0UL, 2UL}) {
        runtime::ExecutorOptions exec_opts;
        exec_opts.workers = workers;
        runtime::Executor executor(exec_opts);
        std::vector<std::atomic<int>> hits(97);
        executor.parallelFor(hits.size(), [&hits](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "workers=" << workers;
    }
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
