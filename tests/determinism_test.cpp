/**
 * @file
 * Determinism regression tests: the whole pipeline from a seeded Rng
 * through sampled access counts, the access CDF, the DP partitioner and
 * the deployment planner must produce byte-identical results when run
 * twice from the same seed. This dynamically guards the repo's
 * no-unseeded-randomness lint rule (tools/analyze) — any std::rand /
 * random_device / time() sneaking into the pipeline shows up here as a
 * plan diff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ios>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "elasticrec/common/rng.h"
#include "elasticrec/core/dp_partitioner.h"
#include "elasticrec/core/planner.h"
#include "elasticrec/embedding/access_cdf.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/model/dlrm_config.h"
#include "elasticrec/workload/access_distribution.h"

namespace erec::core {
namespace {

constexpr std::uint64_t kSeed = 0xE1A57ECu;

/**
 * One full planning run from a fresh seed: sample an access stream,
 * build the per-table CDF, and plan. Everything downstream of `seed`
 * must be a pure function of it.
 */
embedding::AccessCdf
sampledCdf(std::uint64_t seed, std::uint64_t num_rows)
{
    Rng rng(seed);
    workload::LocalityDistribution dist(num_rows, 0.8);
    std::vector<std::uint64_t> counts(num_rows, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[dist.sampleRank(rng)];
    std::sort(counts.begin(), counts.end(),
              std::greater<std::uint64_t>());
    return embedding::AccessCdf::fromSortedCounts(counts, 256);
}

/** Byte-exact serialization of a plan (hexfloat for doubles). */
std::string
serialize(const DeploymentPlan &plan)
{
    std::ostringstream oss;
    oss << std::hexfloat;
    oss << plan.policy << "\n";
    for (const auto &s : plan.shards) {
        oss << s.name << "|" << toString(s.kind) << "|" << s.tableId
            << "|" << s.shardId << "|" << s.beginRow << "|" << s.endRow
            << "|" << s.memBytes << "|" << s.cpuCores << "|" << s.usesGpu
            << "|" << s.qpsPerReplica << "|" << s.serviceLatency << "|"
            << s.expectedGathers;
        for (const auto t : s.stageLatencies)
            oss << "|" << t;
        oss << "|r" << DeploymentPlan::replicasForTarget(s, 5000.0)
            << "\n";
    }
    oss << "mem=" << plan.memoryForTarget(5000.0) << "\n";
    return oss.str();
}

std::string
serialize(const PartitionPlan &plan)
{
    std::ostringstream oss;
    oss << std::hexfloat << plan.cost;
    for (const auto b : plan.boundaries)
        oss << "|" << b;
    return oss.str();
}

TEST(DeterminismTest, SampledCdfIsSeedDeterministic)
{
    const auto a = sampledCdf(kSeed, 50000);
    const auto b = sampledCdf(kSeed, 50000);
    ASSERT_EQ(a.granules(), b.granules());
    for (std::uint32_t g = 0; g <= a.granules(); ++g)
        EXPECT_EQ(a.massAtGranule(g), b.massAtGranule(g)) << "g=" << g;
    // A different seed must actually change the sampled stream,
    // otherwise this test would pass vacuously.
    const auto c = sampledCdf(kSeed + 1, 50000);
    bool any_diff = false;
    for (std::uint32_t g = 0; g <= a.granules() && !any_diff; ++g)
        any_diff = a.massAtGranule(g) != c.massAtGranule(g);
    EXPECT_TRUE(any_diff);
}

TEST(DeterminismTest, DpPartitionerIsDeterministic)
{
    auto run = [](std::uint64_t seed) {
        const auto cdf = sampledCdf(seed, 50000);
        auto cost = [&cdf](std::uint64_t begin, std::uint64_t end) {
            return cdf.massOfRange(begin, end) *
                       static_cast<double>(end - begin) +
                   1000.0;
        };
        DpPartitioner::Options options;
        options.maxShards = 8;
        options.granules = 128;
        DpPartitioner dp(cdf.numRows(), cost, options);
        return serialize(dp.findOptimalPlan());
    };
    EXPECT_EQ(run(kSeed), run(kSeed));
}

TEST(DeterminismTest, PlannerProducesByteIdenticalPlans)
{
    auto run = [](std::uint64_t seed) {
        auto config = model::rm1();
        config.numTables = 2;
        config.rowsPerTable = 50000;
        Planner planner = Planner::forPlatform(config, hw::cpuOnlyNode());
        auto cdf = std::make_shared<const embedding::AccessCdf>(
            sampledCdf(seed, config.rowsPerTable));
        return serialize(planner.planElasticRec({cdf}));
    };
    const std::string first = run(kSeed);
    const std::string second = run(kSeed);
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
}

} // namespace
} // namespace erec::core
