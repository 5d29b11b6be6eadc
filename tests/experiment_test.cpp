/**
 * @file
 * Tests for the experiment harness helpers: CDF construction, static
 * deployment evaluation and the utility measurement of Figures 14/17.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "elasticrec/hw/platform.h"
#include "elasticrec/sim/csv.h"
#include "elasticrec/sim/experiment.h"

namespace erec::sim {
namespace {

TEST(ExperimentTest, CdfForMatchesConfigLocality)
{
    const auto config = model::rm1();
    const auto cdf = cdfFor(config, 512);
    EXPECT_EQ(cdf->numRows(), config.rowsPerTable);
    EXPECT_NEAR(cdf->localityP(), config.localityP, 0.01);
}

TEST(ExperimentTest, StaticDeploymentConsistency)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    core::Planner planner(config, node);
    const auto plan = planner.planElasticRec({cdfFor(config)});
    const auto view = evaluateStatic(plan, node, 100.0);

    EXPECT_EQ(view.policy, "elasticrec");
    EXPECT_EQ(view.memory, plan.memoryForTarget(100.0 / kSizingUtilization));
    std::uint32_t total = 0;
    for (const auto &[name, replicas] : view.replicas)
        total += replicas;
    EXPECT_EQ(total, view.totalReplicas);
    EXPECT_GT(view.nodes, 0u);
}

TEST(ExperimentTest, HigherTargetNeedsMoreResources)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    core::Planner planner(config, node);
    const auto plan = planner.planElasticRec({cdfFor(config)});
    const auto lo = evaluateStatic(plan, node, 50.0);
    const auto hi = evaluateStatic(plan, node, 400.0);
    EXPECT_LT(lo.memory, hi.memory);
    EXPECT_LT(lo.totalReplicas, hi.totalReplicas);
    EXPECT_LE(lo.nodes, hi.nodes);
}

TEST(ExperimentTest, UtilityHotShardsHigher)
{
    // Figures 14/17 property: with the paper's partitioning, hotter
    // shards show monotonically higher utility, and the monolithic
    // layout's overall utility is low.
    auto config = model::rm1();
    config.rowsPerTable = 1'000'000; // shrink for test speed
    const std::vector<std::uint64_t> boundaries = {
        20000, 100000, 400000, 1'000'000};
    const auto report =
        measureUtility(config, boundaries, {}, 100.0, {.numQueries = 50});
    ASSERT_EQ(report.shardUtility.size(), 4u);
    // Non-increasing hot-to-cold, strictly hotter head than tail.
    for (std::size_t s = 1; s < report.shardUtility.size(); ++s)
        EXPECT_GE(report.shardUtility[s - 1],
                  report.shardUtility[s] - 1e-12);
    EXPECT_GT(report.shardUtility.front(),
              report.shardUtility.back() * 5);

    const auto mono = measureUtility(config, {config.rowsPerTable}, {},
                                     100.0, {.numQueries = 50});
    EXPECT_LT(mono.shardUtility[0], 0.30);
    EXPECT_NEAR(mono.overallUtility, report.overallUtility, 0.02);
}

TEST(ExperimentTest, UtilityReplicaCounts)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    core::Planner planner(config, node);
    const auto plan = planner.planElasticRec({cdfFor(config)});
    const auto shards = plan.tableShards(0);
    std::vector<std::uint64_t> boundaries;
    for (const auto *s : shards)
        boundaries.push_back(s->endRow);
    const auto report = measureUtility(config, boundaries, shards, 100.0,
                                       {.numQueries = 50});
    ASSERT_EQ(report.shardReplicas.size(), shards.size());
    // Hottest shard gets at least as many replicas as the coldest.
    EXPECT_GE(report.shardReplicas.front(),
              report.shardReplicas.back());
}

TEST(ExperimentTest, SteadyStateReportsViolationFraction)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    core::Planner planner(config, node);
    const auto plan = planner.planModelWise();
    const auto result = runSteadyState(
        plan, node, 30.0, {.duration = 30 * units::kSecond});
    EXPECT_GE(result.slaViolationFraction, 0.0);
    EXPECT_LE(result.slaViolationFraction, 1.0);
    EXPECT_GT(result.achievedQps, 0.0);
}

TEST(ExperimentTest, CsvExportAlignsSeries)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    core::Planner planner(config, node);
    const auto plan = planner.planModelWise();
    SimOptions opt;
    opt.seed = 3;
    ClusterSimulation sim(plan, node,
                          workload::TrafficPattern::constant(20.0),
                          opt);
    const auto r = sim.run(30 * units::kSecond);

    std::ostringstream oss;
    writeSimResultCsv(oss, r);
    std::istringstream iss(oss.str());
    std::string line;
    ASSERT_TRUE(std::getline(iss, line));
    EXPECT_EQ(line,
              "time_s,target_qps,achieved_qps,memory_gib,p95_ms,"
              "replicas,nodes");
    std::size_t rows = 0;
    while (std::getline(iss, line)) {
        ++rows;
        // Every row has exactly 6 commas.
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 6);
    }
    EXPECT_EQ(rows, r.targetQps.size());
}

} // namespace
} // namespace erec::sim
