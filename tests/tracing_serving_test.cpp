/**
 * @file
 * Integration tests for causal tracing through the concurrent serving
 * stack: TraceContext propagation from QueryDispatcher::submit through
 * BatchQueue coalescing into the shard servers, fan-in links from
 * batch traces to their sampled members, the workers=0 vs workers=4
 * byte-identical canonical-forest gate, also with uneven per-table
 * shard counts (which also gives TSan a real producer/consumer
 * workload over the span rings, recorded from whichever thread ran a
 * job), ring-overflow
 * drop accounting through the stack, and the allocation-free steady
 * path with tracing on.
 */

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/obs/span_name.h"
#include "elasticrec/obs/span_tree.h"
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
makeTracedStack(const std::shared_ptr<const model::Dlrm> &dlrm,
                std::size_t workers, std::uint64_t sample_every,
                std::size_t ring_capacity = 4096,
                std::vector<TablePlan> plans = {
                    TablePlan{.boundaries = {10, 100, 500}}})
{
    StackOptions options;
    options.observability = std::make_shared<obs::Registry>();
    runtime::ExecutorOptions exec_opts;
    exec_opts.workers = workers;
    exec_opts.maxBatchSize = 4;
    exec_opts.maxBatchDelayUs = 100;
    options.executor = std::make_shared<runtime::Executor>(exec_opts);
    options.traceSampleEvery = sample_every;
    options.traceRingCapacity = ring_capacity;
    return buildElasticRecStack(dlrm, std::move(plans), options);
}

/** Name of a node's span, resolved from the process-wide table. */
const std::string &
nameOf(const obs::SpanNode &node)
{
    return obs::spanName(node.event.name);
}

TEST(TracingServingTest, ContextPropagatesThroughBatchQueueToShards)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto stack = makeTracedStack(dlrm, 2, /*sample_every=*/1);
    ASSERT_NE(stack.recorder, nullptr);

    constexpr std::uint64_t kQueries = 16;
    std::vector<std::future<std::vector<float>>> futures;
    for (std::uint64_t seed = 1; seed <= kQueries; ++seed)
        futures.push_back(stack.submit(makeQuery(config, seed)));
    for (auto &f : futures)
        f.get();
    stack.dispatcher->drain();

    const auto trees = obs::buildSpanTrees(stack.recorder->drain());

    // Every query was sampled; batch traces ride along at the end
    // (their trace-id bit sorts them after all query ids).
    ASSERT_GE(trees.size(), kQueries);
    std::map<std::uint64_t, const obs::SpanTree *> queries;
    std::uint64_t sampled_links = 0;
    for (const auto &tree : trees) {
        if (tree.isBatch()) {
            // Fan-in links point at sampled member query traces.
            for (const auto &link : tree.links) {
                EXPECT_GE(link.arg, 1u);
                EXPECT_LE(link.arg, kQueries);
                ++sampled_links;
            }
            continue;
        }
        queries.emplace(tree.traceId, &tree);
    }
    ASSERT_EQ(queries.size(), kQueries);
    // Every member query appears in exactly one coalesced batch.
    EXPECT_EQ(sampled_links, kQueries);

    for (std::uint64_t id = 1; id <= kQueries; ++id) {
        const obs::SpanTree &tree = *queries.at(id);
        const obs::SpanNode &root = tree.nodes[tree.root];
        EXPECT_EQ(nameOf(root), "serving/query");
        EXPECT_EQ(root.event.spanId, obs::kRootSpanId);

        // The dispatcher skeleton: queue wait + serve under the root.
        ASSERT_EQ(root.children.size(), 2u);
        const obs::SpanNode &queue = tree.nodes[root.children[0]];
        const obs::SpanNode &serve = tree.nodes[root.children[1]];
        EXPECT_EQ(nameOf(queue), "serving/queue");
        EXPECT_EQ(nameOf(serve), "serving/serve");

        // The context crossed the BatchQueue into the dense server:
        // bottom MLP plus at least one shard gather hang off serve.
        ASSERT_GE(serve.children.size(), 2u);
        EXPECT_EQ(nameOf(tree.nodes[serve.children[0]]),
                  "serving/mlp_bottom");
        for (std::size_t i = 1; i < serve.children.size(); ++i)
            EXPECT_EQ(nameOf(tree.nodes[serve.children[i]]),
                      "rpc/gather");
    }
}

TEST(TracingServingTest, EveryNthSamplingHoldsThroughTheStack)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto stack = makeTracedStack(dlrm, 0, /*sample_every=*/4);
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        stack.submit(makeQuery(config, seed)).get();
    stack.dispatcher->drain();

    std::uint64_t query_trees = 0;
    for (const auto &tree :
         obs::buildSpanTrees(stack.recorder->drain()))
        query_trees += tree.isBatch() ? 0 : 1;
    EXPECT_EQ(query_trees, 4u); // Submissions 0, 4, 8, 12.
}

/** Canonical forest of one traced run at the given worker count. */
std::string
runForest(const model::DlrmConfig &config,
          const std::shared_ptr<const model::Dlrm> &dlrm,
          std::size_t workers,
          std::vector<TablePlan> plans = {
              TablePlan{.boundaries = {10, 100, 500}}})
{
    auto stack = makeTracedStack(dlrm, workers, /*sample_every=*/1,
                                 /*ring_capacity=*/4096, std::move(plans));
    std::vector<std::future<std::vector<float>>> futures;
    for (std::uint64_t seed = 1; seed <= 32; ++seed)
        futures.push_back(stack.submit(makeQuery(config, seed)));
    for (auto &f : futures)
        f.get();
    stack.dispatcher->drain();
    return obs::canonicalForestText(
        obs::buildSpanTrees(stack.recorder->drain()));
}

TEST(TracingServingTest, ForestByteIdenticalSerialVsFourWorkers)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);

    // Span ids are slot-derived and sampling follows submission order,
    // so the canonical forest — structure, names, args; no timestamps,
    // no batch traces — must not move by a byte when the dispatcher
    // goes from inline serving to four pump workers. Under TSan this
    // doubles as the race check on concurrent ring producers vs the
    // drain consumer.
    const std::string serial = runForest(config, dlrm, 0);
    const std::string concurrent = runForest(config, dlrm, 4);
    EXPECT_FALSE(serial.empty());
    EXPECT_NE(serial.find("serving/query"), std::string::npos);
    EXPECT_NE(serial.find("serving/mlp_bottom"), std::string::npos);
    EXPECT_EQ(serial, concurrent);
}

TEST(TracingServingTest, UnevenShardCountsForestByteIdentical)
{
    // Tables of 1, 2 and 3 shards: each gather's span slot is 1 + its
    // table's shard offset + shard, whichever thread ran the table job.
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    const std::vector<TablePlan> plans = {
        TablePlan{.boundaries = {500}},
        TablePlan{.boundaries = {100, 500}},
        TablePlan{.boundaries = {10, 100, 500}}};
    const std::string serial = runForest(config, dlrm, 0, plans);
    const std::string concurrent = runForest(config, dlrm, 4, plans);
    EXPECT_NE(serial.find("rpc/gather"), std::string::npos);
    EXPECT_EQ(serial, concurrent);
}

TEST(TracingServingTest, RingOverflowDropsAreCountedNotFatal)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    // A 4-event ring cannot hold even one query's spans; serving must
    // still complete every query and account the overflow.
    auto stack = makeTracedStack(dlrm, 0, /*sample_every=*/1,
                                 /*ring_capacity=*/4);
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        EXPECT_FALSE(stack.submit(makeQuery(config, seed)).get().empty());
    stack.dispatcher->drain();
    EXPECT_GT(stack.recorder->droppedEvents(), 0u);
}

TEST(TracingServingTest, SteadyStateTracedServingDoesNotAllocateInGates)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto stack = makeTracedStack(dlrm, 2, /*sample_every=*/1);

    // Warm-up grows queue/pool/ring capacity to steady state.
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        stack.submit(makeQuery(config, seed)).get();

    // With every query traced, the AllocGate regions must still see
    // zero allocations: span records are fixed-size pushes into
    // pre-registered rings — the dynamic half of the bench's
    // allocs_per_query=0 gate with --trace-sample on.
    resetAllocRegionStats();
    for (std::uint64_t seed = 100; seed < 132; ++seed)
        stack.submit(makeQuery(config, seed)).get();
    stack.dispatcher->drain();

    std::uint64_t enters = 0;
    for (const auto &r : allocRegionStats()) {
        EXPECT_EQ(r.allocs, 0u) << "region " << r.name
                                << " allocated on the traced path";
        enters += r.enters;
    }
    EXPECT_GT(enters, 0u);
}

} // namespace
} // namespace erec::serving
