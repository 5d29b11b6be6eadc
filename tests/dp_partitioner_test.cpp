/**
 * @file
 * Tests for the DP table partitioner (Algorithm 2), including an exact
 * reproduction of the paper's Figure 10 worked example and a
 * brute-force optimality check over random cost functions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "elasticrec/common/error.h"
#include "elasticrec/common/rng.h"
#include "elasticrec/core/dp_partitioner.h"

namespace erec::core {
namespace {

/**
 * The Figure 10 toy cost function: COST(k, j) = (j - k + 1)^2 / k with
 * 1-based inclusive indices. Our ranges are 0-based half-open [b, e),
 * so k = b + 1 and j = e.
 */
double
fig10Cost(std::uint64_t b, std::uint64_t e)
{
    const double len = static_cast<double>(e - b);
    return len * len / static_cast<double>(b + 1);
}

TEST(DpPartitionerTest, Figure10Example)
{
    DpPartitioner::Options opt;
    opt.maxShards = 3;
    opt.granules = 5; // exact row-level candidates
    DpPartitioner dp(5, fig10Cost, opt);

    const PartitionPlan plan = dp.planWithShards(3);
    // The paper derives Mem[3][5] = 4 with partitioning points
    // [1, 3, 5]: shards E[1], E[2,3], E[4,5].
    EXPECT_DOUBLE_EQ(plan.cost, 4.0);
    EXPECT_EQ(plan.boundaries,
              (std::vector<std::uint64_t>{1, 3, 5}));
}

TEST(DpPartitionerTest, Figure10SingleShardInitialization)
{
    DpPartitioner::Options opt;
    opt.maxShards = 3;
    opt.granules = 5;
    DpPartitioner dp(5, fig10Cost, opt);
    // Mem[1][5] = COST(1, 5) = 25.
    const PartitionPlan one = dp.planWithShards(1);
    EXPECT_DOUBLE_EQ(one.cost, 25.0);
    EXPECT_EQ(one.boundaries, (std::vector<std::uint64_t>{5}));
}

TEST(DpPartitionerTest, FindOptimalPicksCheapestShardCount)
{
    DpPartitioner::Options opt;
    opt.maxShards = 5;
    opt.granules = 5;
    DpPartitioner dp(5, fig10Cost, opt);
    const auto best = dp.findOptimalPlan();
    for (std::uint32_t s = 1; s <= opt.maxShards; ++s) {
        const PartitionPlan plan = dp.planWithShards(s);
        EXPECT_LE(best.cost, plan.cost + 1e-12);
        EXPECT_EQ(plan.numShards(), s);
    }
}

TEST(DpPartitionerTest, BoundariesAlwaysCoverTable)
{
    DpPartitioner::Options opt;
    opt.maxShards = 4;
    opt.granules = 16;
    DpPartitioner dp(1000, fig10Cost, opt);
    for (std::uint32_t s = 1; s <= 4; ++s) {
        const auto plan = dp.planWithShards(s);
        EXPECT_EQ(plan.numShards(), s);
        EXPECT_EQ(plan.boundaries.back(), 1000u);
        for (std::size_t i = 1; i < plan.boundaries.size(); ++i)
            EXPECT_GT(plan.boundaries[i], plan.boundaries[i - 1]);
    }
}

/** Brute-force optimum over all compositions of `rows` into shards. */
double
bruteForceBest(std::uint64_t rows, std::uint32_t max_shards,
               const ShardCostFn &cost)
{
    double best = std::numeric_limits<double>::infinity();
    std::function<void(std::uint64_t, std::uint32_t, double)> rec =
        [&](std::uint64_t begin, std::uint32_t shards_left,
            double acc) {
            if (begin == rows) {
                best = std::min(best, acc);
                return;
            }
            if (shards_left == 0)
                return;
            for (std::uint64_t end = begin + 1; end <= rows; ++end)
                rec(end, shards_left - 1, acc + cost(begin, end));
        };
    rec(0, max_shards, 0.0);
    return best;
}

class DpOptimality : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DpOptimality, MatchesBruteForceOnRandomCosts)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    const std::uint64_t rows = 9;
    const std::uint32_t max_shards = 4;
    // Random positive cost per (begin, end) pair, fixed by seed.
    std::vector<std::vector<double>> table(
        rows + 1, std::vector<double>(rows + 1, 0.0));
    for (std::uint64_t b = 0; b < rows; ++b)
        for (std::uint64_t e = b + 1; e <= rows; ++e)
            table[b][e] = rng.uniform(0.1, 10.0);
    auto cost = [&table](std::uint64_t b, std::uint64_t e) {
        return table[b][e];
    };

    DpPartitioner::Options opt;
    opt.maxShards = max_shards;
    opt.granules = static_cast<std::uint32_t>(rows);
    DpPartitioner dp(rows, cost, opt);
    const auto plan = dp.findOptimalPlan();
    const double brute = bruteForceBest(rows, max_shards, cost);
    EXPECT_NEAR(plan.cost, brute, 1e-9) << "seed " << seed;

    // The plan's claimed cost must equal its recomputed cost.
    double recomputed = 0.0;
    std::uint64_t begin = 0;
    for (auto end : plan.boundaries) {
        recomputed += cost(begin, end);
        begin = end;
    }
    EXPECT_NEAR(plan.cost, recomputed, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DpOptimality,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DpPartitionerTest, GranuleModeRespectsCandidates)
{
    // With 4 granules over 100 rows, boundaries fall on multiples of 25.
    DpPartitioner::Options opt;
    opt.maxShards = 3;
    opt.granules = 4;
    DpPartitioner dp(100, fig10Cost, opt);
    const auto plan = dp.planWithShards(2);
    for (auto b : plan.boundaries)
        EXPECT_EQ(b % 25, 0u);
}

TEST(DpPartitionerTest, ExplicitCandidates)
{
    DpPartitioner dp(100, fig10Cost, {10, 60, 100}, 3);
    const auto plan = dp.findOptimalPlan();
    for (auto b : plan.boundaries) {
        EXPECT_TRUE(b == 10 || b == 60 || b == 100);
    }
    EXPECT_EQ(plan.boundaries.back(), 100u);
}

TEST(DpPartitionerTest, RejectsBadInputs)
{
    EXPECT_THROW(DpPartitioner(0, fig10Cost), ConfigError);
    EXPECT_THROW(DpPartitioner(10, nullptr), ConfigError);
    EXPECT_THROW(DpPartitioner(10, fig10Cost, {5, 9}, 2), ConfigError);
    DpPartitioner dp(10, fig10Cost);
    EXPECT_THROW(dp.planWithShards(0), ConfigError);
    EXPECT_THROW(dp.planWithShards(999), ConfigError);
}

TEST(DpPartitionerTest, MoreShardsNeverIncreaseCostWhenFree)
{
    // With a cost function that is additive and size-proportional,
    // adding shards is never worse (and typically equal); the frontier
    // must be non-increasing.
    auto additive = [](std::uint64_t b, std::uint64_t e) {
        return static_cast<double>(e - b);
    };
    DpPartitioner::Options opt;
    opt.maxShards = 6;
    opt.granules = 12;
    DpPartitioner dp(12, additive, opt);
    for (std::uint32_t s = 2; s <= opt.maxShards; ++s)
        EXPECT_LE(dp.planWithShards(s).cost,
                  dp.planWithShards(s - 1).cost + 1e-12);
}

} // namespace
} // namespace erec::core
