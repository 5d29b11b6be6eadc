/**
 * @file
 * Tests for the deployment planners: ElasticRec shard generation,
 * model-wise baseline, the GPU-cache variant, and the plan-level
 * properties the paper's evaluation depends on (hot shards need more
 * replicas, ElasticRec consumes less memory at equal target QPS, the
 * sorting ablation degrades the plan).
 */

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/core/planner.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/sim/experiment.h"

namespace erec::core {
namespace {

model::DlrmConfig
smallConfig()
{
    auto c = model::rm1();
    c.numTables = 2;
    return c;
}

TEST(PlannerTest, ElasticRecPlanShape)
{
    const auto config = smallConfig();
    Planner planner(config, hw::cpuOnlyNode());
    const auto plan = planner.planElasticRec({sim::cdfFor(config)});
    EXPECT_EQ(plan.policy, "elasticrec");

    // Exactly one dense shard plus >= 1 sparse shard per table.
    int dense = 0;
    std::vector<int> per_table(config.numTables, 0);
    for (const auto &s : plan.shards) {
        if (s.kind == ShardKind::Dense)
            ++dense;
        else if (s.kind == ShardKind::SparseEmbedding)
            ++per_table[s.tableId];
    }
    EXPECT_EQ(dense, 1);
    for (auto n : per_table)
        EXPECT_GE(n, 1);

    // Sparse shards tile the table exactly.
    for (std::uint32_t t = 0; t < config.numTables; ++t) {
        const auto shards = plan.tableShards(t);
        std::uint64_t expect_begin = 0;
        for (const auto *s : shards) {
            EXPECT_EQ(s->beginRow, expect_begin);
            expect_begin = s->endRow;
        }
        EXPECT_EQ(expect_begin, config.rowsPerTable);
    }
}

TEST(PlannerTest, ShardGathersSumToTableGathers)
{
    const auto config = smallConfig();
    Planner planner(config, hw::cpuOnlyNode());
    const auto plan = planner.planElasticRec({sim::cdfFor(config)});
    for (std::uint32_t t = 0; t < config.numTables; ++t) {
        double total = 0;
        for (const auto *s : plan.tableShards(t))
            total += s->expectedGathers;
        EXPECT_NEAR(total,
                    static_cast<double>(
                        config.gathersPerQueryPerTable()),
                    1.0);
    }
}

TEST(PlannerTest, HotterShardsNeedMoreReplicas)
{
    const auto config = smallConfig();
    Planner planner(config, hw::cpuOnlyNode());
    const auto plan = planner.planElasticRec({sim::cdfFor(config)});
    const auto shards = plan.tableShards(0);
    ASSERT_GE(shards.size(), 2u);
    // Shard 0 (hottest) must demand at least as many replicas as the
    // coldest shard, and strictly lower per-replica QPS.
    const auto hot = DeploymentPlan::replicasForTarget(*shards.front(),
                                                       100.0);
    const auto cold = DeploymentPlan::replicasForTarget(*shards.back(),
                                                        100.0);
    EXPECT_GE(hot, cold);
    EXPECT_LT(shards.front()->qpsPerReplica,
              shards.back()->qpsPerReplica);
}

TEST(PlannerTest, DeployedShardsCostWhatTheDpPriced)
{
    // Every sparse shard is sized by the cost model the DP priced it
    // with: at the DP's target traffic, a table's replicas x memory
    // equals the DP's plan cost exactly (every term is an integer
    // below 2^53, so the double sums are exact).
    const double target = CostModelParams{}.targetTraffic;
    for (const auto &node : {hw::cpuOnlyNode(), hw::cpuGpuNode()}) {
        for (const auto &config : model::tableIIModels()) {
            const Planner planner = Planner::forPlatform(config, node);
            const auto cdf = sim::cdfFor(config);
            const double dp_cost = planner.partitionTable(*cdf).cost;
            const auto plan = planner.planElasticRec({cdf});
            for (std::uint32_t t = 0; t < config.numTables; ++t) {
                Bytes deployed = 0;
                for (const auto *s : plan.tableShards(t))
                    deployed += Bytes{DeploymentPlan::replicasForTarget(
                                    *s, target)} *
                                s->memBytes;
                EXPECT_EQ(static_cast<double>(deployed), dp_cost)
                    << config.name << " on " << node.name << ", table "
                    << t;
            }
        }
    }
}

TEST(PlannerTest, ModelWisePlan)
{
    const auto config = smallConfig();
    Planner planner(config, hw::cpuOnlyNode());
    const auto plan = planner.planModelWise();
    ASSERT_EQ(plan.shards.size(), 1u);
    const auto &mono = plan.shards[0];
    EXPECT_EQ(mono.kind, ShardKind::Monolithic);
    EXPECT_EQ(mono.memBytes,
              config.totalParamBytes() + PlannerOptions{}.minMemAlloc);
    ASSERT_EQ(mono.stageLatencies.size(), 2u);
    EXPECT_EQ(mono.serviceLatency(),
              mono.stageLatencies[0] + mono.stageLatencies[1]);
    // Throughput set by the slower stage.
    const double expect_qps =
        1.0 / units::toSeconds(std::max(mono.stageLatencies[0],
                                        mono.stageLatencies[1]));
    EXPECT_NEAR(mono.qpsPerReplica, expect_qps, expect_qps * 0.01);
}

TEST(PlannerTest, ElasticRecUsesLessMemoryAtEqualTarget)
{
    // The paper's headline property, at paper scale (RM1).
    const auto config = model::rm1();
    Planner planner(config, hw::cpuOnlyNode());
    const auto er = planner.planElasticRec({sim::cdfFor(config)});
    const auto mw = planner.planModelWise();
    for (double target : {100.0, 200.0, 400.0}) {
        EXPECT_LT(er.memoryForTarget(target),
                  mw.memoryForTarget(target))
            << "target " << target;
    }
}

TEST(PlannerTest, SortingAblationDegradesPlan)
{
    // Figure 8(a) vs 8(b): partitioning an unsorted table loses the
    // hot/cold separation, costing memory at equal target QPS.
    const auto config = model::rm1();
    Planner sorted(config, hw::cpuOnlyNode());
    PlannerOptions opt;
    opt.sortTables = false;
    Planner unsorted(config, hw::cpuOnlyNode(), opt);
    const auto cdf = sim::cdfFor(config);
    const auto plan_sorted = sorted.planElasticRec({cdf});
    const auto plan_unsorted = unsorted.planElasticRec({cdf});
    EXPECT_LT(plan_sorted.memoryForTarget(100.0),
              plan_unsorted.memoryForTarget(100.0));
}

TEST(PlannerTest, ForceShardsOverridesDp)
{
    const auto config = smallConfig();
    PlannerOptions opt;
    opt.forceShards = 7;
    Planner planner(config, hw::cpuOnlyNode(), opt);
    const auto plan = planner.planElasticRec({sim::cdfFor(config)});
    EXPECT_EQ(plan.tableShards(0).size(), 7u);
}

TEST(PlannerTest, GpuCacheFasterThanPlainModelWise)
{
    const auto config = model::rm1();
    Planner planner = Planner::forPlatform(config, hw::cpuGpuNode());
    const auto mw = planner.planModelWise();
    const auto cache = planner.planModelWiseGpuCache();
    EXPECT_GT(cache.frontendShard().qpsPerReplica,
              mw.frontendShard().qpsPerReplica);
    EXPECT_LT(cache.memoryForTarget(200.0),
              mw.memoryForTarget(200.0));
}

TEST(PlannerTest, GpuCacheRequiresGpu)
{
    Planner planner(smallConfig(), hw::cpuOnlyNode());
    EXPECT_THROW(planner.planModelWiseGpuCache(), ConfigError);
}

TEST(PlannerTest, DenseShardUsesGpuOnGpuPlatform)
{
    Planner gpu = Planner::forPlatform(smallConfig(), hw::cpuGpuNode());
    const auto plan = gpu.planElasticRec({sim::cdfFor(smallConfig())});
    EXPECT_TRUE(plan.frontendShard().usesGpu);
    for (const auto &s : plan.shards) {
        if (s.kind == ShardKind::SparseEmbedding) {
            EXPECT_FALSE(s.usesGpu);
        }
    }
}

TEST(PlannerTest, ReplicasForTargetMath)
{
    ShardSpec spec;
    spec.qpsPerReplica = 30.0;
    EXPECT_EQ(DeploymentPlan::replicasForTarget(spec, 100.0), 4u);
    EXPECT_EQ(DeploymentPlan::replicasForTarget(spec, 30.0), 1u);
    EXPECT_EQ(DeploymentPlan::replicasForTarget(spec, 1.0), 1u);
}

TEST(PlannerTest, DefaultOptionsPerPlatform)
{
    EXPECT_EQ(defaultPlannerOptions(hw::cpuOnlyNode()).sparseCores, 1u);
    EXPECT_EQ(defaultPlannerOptions(hw::cpuGpuNode()).sparseCores, 2u);
}

TEST(PlannerTest, RejectsBadCdfSets)
{
    const auto config = smallConfig();
    Planner planner(config, hw::cpuOnlyNode());
    EXPECT_THROW(planner.planElasticRec({}), ConfigError);
    EXPECT_THROW(planner.planElasticRec({nullptr}), ConfigError);
}

TEST(PlannerTest, ColumnWisePlanShape)
{
    const auto config = smallConfig();
    Planner planner(config, hw::cpuOnlyNode());
    const auto plan = planner.planColumnWise(4);
    EXPECT_EQ(plan.policy, "column-wise");
    // One dense shard + 4 column shards per table.
    EXPECT_EQ(plan.shards.size(),
              1u + 4u * config.numTables);
    for (const auto &s : plan.shards) {
        if (s.kind != ShardKind::SparseEmbedding)
            continue;
        // Every column shard spans all rows and sees the full n_t.
        EXPECT_EQ(s.endRow - s.beginRow, config.rowsPerTable);
        EXPECT_NEAR(s.expectedGathers,
                    static_cast<double>(
                        config.gathersPerQueryPerTable()),
                    1e-6);
    }
}

TEST(PlannerTest, ColumnWiseCannotBeatRowWise)
{
    // Column shards all scale together, so at equal target QPS the
    // hotness-partitioned plan must be at least as memory-efficient.
    const auto config = model::rm1();
    Planner planner(config, hw::cpuOnlyNode());
    const auto row = planner.planElasticRec({sim::cdfFor(config)});
    for (std::uint32_t columns : {2u, 4u, 8u}) {
        const auto col = planner.planColumnWise(columns);
        EXPECT_LE(row.memoryForTarget(100.0),
                  col.memoryForTarget(100.0))
            << columns << " columns";
    }
}

TEST(PlannerTest, ColumnWiseRejectsBadCounts)
{
    Planner planner(smallConfig(), hw::cpuOnlyNode());
    EXPECT_THROW(planner.planColumnWise(0), ConfigError);
    EXPECT_THROW(planner.planColumnWise(33), ConfigError);
    EXPECT_THROW(planner.planColumnWise(5), ConfigError); // 32 % 5 != 0
}

TEST(PlannerTest, HotCacheExtensionShape)
{
    const auto config = smallConfig();
    Planner planner = Planner::forPlatform(config, hw::cpuGpuNode());
    const auto cdf = sim::cdfFor(config);
    const std::uint64_t hot = 1'000'000;
    const auto plan = planner.planElasticRecHotCache({cdf}, hot);
    EXPECT_EQ(plan.policy, "elasticrec-hot-cache");

    // The dense shard absorbs the hot prefixes into its memory.
    const auto &dense = plan.frontendShard();
    EXPECT_GT(dense.memBytes,
              config.denseParamBytes() +
                  hot * Bytes{config.embeddingDim} * 4);

    // Cold shards tile exactly [hot, rowsPerTable).
    for (std::uint32_t t = 0; t < config.numTables; ++t) {
        const auto shards = plan.tableShards(t);
        ASSERT_GE(shards.size(), 1u);
        EXPECT_EQ(shards.front()->beginRow, hot);
        EXPECT_EQ(shards.back()->endRow, config.rowsPerTable);
    }
}

TEST(PlannerTest, HotCacheBeatsPlainElasticRecWhenSkewed)
{
    // With P = 90% and a hot prefix covering most gathers, the
    // extension should not be worse than plain ElasticRec on memory.
    const auto config = model::rm1();
    Planner planner = Planner::forPlatform(config, hw::cpuGpuNode());
    const auto cdf = sim::cdfFor(config);
    const auto er = planner.planElasticRec({cdf});
    const auto hot = planner.planElasticRecHotCache({cdf}, 3'000'000);
    EXPECT_LE(hot.memoryForTarget(200.0), er.memoryForTarget(200.0));
}

TEST(PlannerTest, HotCacheValidation)
{
    const auto config = smallConfig();
    Planner cpu(config, hw::cpuOnlyNode());
    const auto cdf = sim::cdfFor(config);
    EXPECT_THROW(cpu.planElasticRecHotCache({cdf}, 1000), ConfigError);

    Planner gpu = Planner::forPlatform(config, hw::cpuGpuNode());
    EXPECT_THROW(gpu.planElasticRecHotCache({cdf}, 0), ConfigError);
    EXPECT_THROW(gpu.planElasticRecHotCache({cdf},
                                            config.rowsPerTable),
                 ConfigError);
    // Exceeding half the HBM capacity is rejected (32 tables x 3M
    // rows x 128 B = 11.4 GiB > 8 GiB).
    const auto wide = model::rm2();
    Planner gpu_wide = Planner::forPlatform(wide, hw::cpuGpuNode());
    EXPECT_THROW(gpu_wide.planElasticRecHotCache({sim::cdfFor(wide)},
                                                 3'000'000),
                 ConfigError);
}

} // namespace
} // namespace erec::core
