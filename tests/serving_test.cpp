/**
 * @file
 * Integration tests for the serving layer: the sharded microservice
 * path (bucketize -> per-shard gather RPC -> merge -> interaction) must
 * produce outputs numerically identical to the monolithic server, for
 * sorted and unsorted tables, across partition plans.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "elasticrec/common/error.h"
#include "elasticrec/embedding/frequency_tracker.h"
#include "elasticrec/serving/monolithic_server.h"
#include "elasticrec/serving/stack_builder.h"

namespace erec::serving {
namespace {

model::DlrmConfig
tinyConfig(std::uint32_t tables = 3)
{
    auto c = model::rm1();
    c.name = "tiny";
    c.rowsPerTable = 500;
    c.numTables = tables;
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

class ShardedEquivalence
    : public ::testing::TestWithParam<std::vector<std::uint64_t>>
{
};

TEST_P(ShardedEquivalence, MatchesMonolithicIdentityOrder)
{
    const auto config = tinyConfig();
    auto dlrm = std::make_shared<model::Dlrm>(config);
    MonolithicServer mono(dlrm);
    auto stack =
        buildElasticRecStack(dlrm, {TablePlan{.boundaries = GetParam()}});

    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto q = makeQuery(config, seed);
        const auto expect = mono.serve(q);
        const auto got = stack.frontend->serve(q);
        ASSERT_EQ(expect.size(), got.size());
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_NEAR(expect[i], got[i], 1e-5) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PartitionPlans, ShardedEquivalence,
    ::testing::Values(std::vector<std::uint64_t>{500},
                      std::vector<std::uint64_t>{50, 500},
                      std::vector<std::uint64_t>{10, 100, 500},
                      std::vector<std::uint64_t>{1, 2, 3, 250, 500}));

TEST(ServingTest, MatchesMonolithicWithHotnessPermutation)
{
    // Full production flow: record access history, sort by hotness,
    // partition in sorted space, bucketize via the inverse
    // permutation — results must still match the monolithic server.
    const auto config = tinyConfig(2);
    auto dlrm = std::make_shared<model::Dlrm>(config);
    MonolithicServer mono(dlrm);

    embedding::FrequencyTracker tracker(config.rowsPerTable);
    for (std::uint64_t seed = 100; seed < 120; ++seed) {
        const auto q = makeQuery(config, seed);
        for (const auto &l : q.lookups)
            tracker.recordAll(l.indices);
    }
    const auto perm = tracker.sortPermutation();
    auto stack = buildElasticRecStack(
        dlrm, {TablePlan{.boundaries = {30, 150, 500}, .sortPerm = perm}});

    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto q = makeQuery(config, seed);
        const auto expect = mono.serve(q);
        const auto got = stack.frontend->serve(q);
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_NEAR(expect[i], got[i], 1e-5) << "seed " << seed;
    }
}

TEST(ServingTest, PerTablePlansAndPerms)
{
    const auto config = tinyConfig(2);
    auto dlrm = std::make_shared<model::Dlrm>(config);
    MonolithicServer mono(dlrm);

    std::vector<std::uint32_t> identity(config.rowsPerTable);
    std::iota(identity.begin(), identity.end(), 0u);
    auto reversed = identity;
    std::reverse(reversed.begin(), reversed.end());

    auto stack = buildElasticRecStack(
        dlrm,
        {TablePlan{.boundaries = {100, 500}, .sortPerm = identity},
         TablePlan{.boundaries = {250, 400, 500}, .sortPerm = reversed}});
    const auto q = makeQuery(config, 9);
    const auto expect = mono.serve(q);
    const auto got = stack.frontend->serve(q);
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_NEAR(expect[i], got[i], 1e-5);
}

TEST(ServingTest, RejectsSortPermWithDuplicate)
{
    // A repeated ID would leave another ID unmapped, and the bucketizer
    // would route it to rank 0 (another row's embedding). The builder
    // must refuse the plan instead.
    const auto config = tinyConfig(2);
    auto dlrm = std::make_shared<model::Dlrm>(config);
    std::vector<std::uint32_t> perm(config.rowsPerTable);
    std::iota(perm.begin(), perm.end(), 0u);
    perm[7] = perm[300];
    EXPECT_THROW(buildElasticRecStack(
                     dlrm, {TablePlan{.boundaries = {30, 500},
                                      .sortPerm = perm}}),
                 ConfigError);
}

TEST(ServingTest, SparseShardLoadAccounting)
{
    const auto config = tinyConfig(1);
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto stack =
        buildElasticRecStack(dlrm, {TablePlan{.boundaries = {50, 500}}});
    const auto q = makeQuery(config, 3);
    stack.frontend->serve(q);
    std::uint64_t gathered = 0;
    for (const auto &s : stack.shards[0])
        gathered += s->rowsGathered();
    EXPECT_EQ(gathered, q.lookups[0].numGathers());
}

TEST(ServingTest, ShardMemoryTilesTable)
{
    const auto config = tinyConfig(1);
    auto dlrm = std::make_shared<model::Dlrm>(config);
    auto stack = buildElasticRecStack(
        dlrm, {TablePlan{.boundaries = {50, 200, 500}}});
    Bytes total = 0;
    for (const auto &s : stack.shards[0])
        total += s->memBytes();
    EXPECT_EQ(total, dlrm->table(0)->numRows() * dlrm->table(0)->rowBytes());
}

TEST(ServingTest, MonolithicMemBytes)
{
    const auto config = tinyConfig(2);
    auto dlrm = std::make_shared<model::Dlrm>(config);
    MonolithicServer mono(dlrm);
    EXPECT_EQ(mono.memBytes(), config.totalParamBytes());
}

TEST(ServingTest, PaperScaleVirtualTablesEquivalence)
{
    // Full paper-scale RM1 table geometry (20M rows x dim 32) with
    // virtual (hash-synthesized) storage: the complete microservice
    // data path runs on a laptop and still matches the monolithic
    // forward bit for bit.
    auto config = model::rm1();
    config.numTables = 2; // keep runtime modest; geometry unchanged
    auto dlrm = std::make_shared<model::Dlrm>(
        config, embedding::Storage::Virtual);
    MonolithicServer mono(dlrm);

    // Paper-like partitioning points in sorted space.
    const std::vector<std::uint64_t> boundaries = {
        600'000, 2'000'000, 12'000'000, 20'000'000};
    auto stack =
        buildElasticRecStack(dlrm, {TablePlan{.boundaries = boundaries}});

    workload::QueryShape shape;
    shape.batchSize = config.batchSize;
    shape.numTables = config.numTables;
    shape.gathersPerItem = config.poolingFactor;
    workload::QueryGenerator gen(
        shape,
        std::make_shared<workload::LocalityDistribution>(
            config.rowsPerTable, config.localityP),
        12345);

    const auto q = gen.next();
    const auto expect = mono.serve(q);
    const auto got = stack.frontend->serve(q);
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_NEAR(expect[i], got[i], 1e-5);
}

} // namespace
} // namespace erec::serving
