/**
 * @file
 * Tests for the access distributions, including a parameterized
 * property suite checking that every distribution's analytic CDF
 * agrees with its empirical sampling behaviour — the invariant the
 * paper's cost model (Algorithm 1, line 11) depends on.
 */

#include <gtest/gtest.h>

#include <memory>

#include "elasticrec/common/error.h"
#include "elasticrec/workload/access_distribution.h"

namespace erec::workload {
namespace {

TEST(LocalityDistributionTest, TopTenPercentCoversP)
{
    for (double p : {0.10, 0.50, 0.90, 0.94}) {
        LocalityDistribution d(100000, p);
        EXPECT_NEAR(d.massOfTopRows(10000), p, 1e-9) << "P=" << p;
        EXPECT_NEAR(d.localityP(), p, 1e-9);
    }
}

TEST(LocalityDistributionTest, CdfEndpoints)
{
    LocalityDistribution d(1000, 0.9);
    EXPECT_DOUBLE_EQ(d.massOfTopRows(0), 0.0);
    EXPECT_DOUBLE_EQ(d.massOfTopRows(1000), 1.0);
    EXPECT_DOUBLE_EQ(d.massOfTopRows(5000), 1.0);
}

TEST(LocalityDistributionTest, RejectsBadParameters)
{
    EXPECT_THROW(LocalityDistribution(0, 0.9), ConfigError);
    EXPECT_THROW(LocalityDistribution(10, 0.0), ConfigError);
    EXPECT_THROW(LocalityDistribution(10, 1.0), ConfigError);
}

TEST(PiecewiseCdfDistributionTest, InterpolatesAnchors)
{
    PiecewiseCdfDistribution d(
        1000, {{0.0, 0.0}, {0.1, 0.8}, {1.0, 1.0}});
    EXPECT_NEAR(d.massOfTopRows(100), 0.8, 1e-9);
    EXPECT_NEAR(d.massOfTopRows(50), 0.4, 1e-9);  // linear in segment
    EXPECT_NEAR(d.massOfTopRows(550), 0.9, 1e-9); // midpoint of tail
}

TEST(PiecewiseCdfDistributionTest, RejectsNonMonotoneAnchors)
{
    EXPECT_THROW(PiecewiseCdfDistribution(
                     100, {{0.0, 0.0}, {0.5, 0.9}, {0.4, 0.95}, {1.0, 1.0}}),
                 ConfigError);
}

TEST(UniformDistributionTest, LinearCdf)
{
    UniformDistribution d(1000);
    EXPECT_NEAR(d.massOfTopRows(100), 0.1, 1e-12);
    EXPECT_NEAR(d.localityP(), 0.1, 1e-12);
}

// ---------------------------------------------------------------------
// Property suite: analytic CDF == empirical sampling distribution.
// ---------------------------------------------------------------------

struct DistCase
{
    const char *name;
    std::shared_ptr<const AccessDistribution> dist;
};

class CdfConsistency : public ::testing::TestWithParam<DistCase>
{
};

TEST_P(CdfConsistency, AnalyticCdfMatchesEmpirical)
{
    const auto &dist = *GetParam().dist;
    const std::uint64_t rows = dist.numRows();
    Rng rng(1234);
    const int n = 300000;
    std::vector<std::uint32_t> counts(rows, 0);
    for (int i = 0; i < n; ++i)
        ++counts[dist.sampleRank(rng)];

    // Compare at several row-prefix checkpoints.
    for (double frac : {0.001, 0.01, 0.1, 0.3, 0.7}) {
        const auto x = static_cast<std::uint64_t>(
            frac * static_cast<double>(rows));
        if (x == 0)
            continue;
        std::uint64_t covered = 0;
        for (std::uint64_t r = 0; r < x; ++r)
            covered += counts[r];
        const double empirical = static_cast<double>(covered) / n;
        EXPECT_NEAR(empirical, dist.massOfTopRows(x), 0.02)
            << GetParam().name << " at prefix " << frac;
    }
}

TEST_P(CdfConsistency, CdfIsMonotone)
{
    const auto &dist = *GetParam().dist;
    const std::uint64_t rows = dist.numRows();
    double prev = 0.0;
    for (std::uint64_t x = 0; x <= rows; x += std::max<std::uint64_t>(
                                             1, rows / 257)) {
        const double m = dist.massOfTopRows(x);
        EXPECT_GE(m, prev - 1e-12);
        EXPECT_GE(m, 0.0);
        EXPECT_LE(m, 1.0);
        prev = m;
    }
}

TEST_P(CdfConsistency, SamplesInRange)
{
    const auto &dist = *GetParam().dist;
    Rng rng(77);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(dist.sampleRank(rng), dist.numRows());
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, CdfConsistency,
    ::testing::Values(
        DistCase{"locality90",
                 std::make_shared<LocalityDistribution>(5000, 0.90)},
        DistCase{"locality50",
                 std::make_shared<LocalityDistribution>(5000, 0.50)},
        DistCase{"locality10",
                 std::make_shared<LocalityDistribution>(5000, 0.10)},
        DistCase{"uniform",
                 std::make_shared<UniformDistribution>(5000)},
        DistCase{"piecewise",
                 std::make_shared<PiecewiseCdfDistribution>(
                     5000,
                     std::vector<PiecewiseCdfDistribution::Anchor>{
                         {0.0, 0.0}, {0.05, 0.6}, {0.1, 0.8},
                         {0.5, 0.95}, {1.0, 1.0}})}),
    [](const ::testing::TestParamInfo<DistCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace erec::workload
