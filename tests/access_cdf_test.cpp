/**
 * @file
 * Tests for the AccessCdf used by the deployment-cost model.
 */

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/embedding/access_cdf.h"

namespace erec::embedding {
namespace {

TEST(AccessCdfTest, FromSortedCountsExact)
{
    // 4 rows with counts 40, 30, 20, 10 -> cumulative 0.4/0.7/0.9/1.0.
    AccessCdf cdf = AccessCdf::fromSortedCounts({40, 30, 20, 10}, 4);
    EXPECT_DOUBLE_EQ(cdf.massOfTopRows(0), 0.0);
    EXPECT_DOUBLE_EQ(cdf.massOfTopRows(1), 0.4);
    EXPECT_DOUBLE_EQ(cdf.massOfTopRows(2), 0.7);
    EXPECT_DOUBLE_EQ(cdf.massOfTopRows(3), 0.9);
    EXPECT_DOUBLE_EQ(cdf.massOfTopRows(4), 1.0);
    EXPECT_DOUBLE_EQ(cdf.massOfRange(1, 3), 0.5);
}

TEST(AccessCdfTest, RejectsUnsortedCounts)
{
    EXPECT_THROW(AccessCdf::fromSortedCounts({10, 40}, 2), ConfigError);
}

TEST(AccessCdfTest, RejectsZeroMass)
{
    EXPECT_THROW(AccessCdf::fromSortedCounts({0, 0, 0}, 3), ConfigError);
}

TEST(AccessCdfTest, GranuleCompressionInterpolates)
{
    // 100 rows, each with identical counts -> mass is linear; a
    // 10-granule compression must still be exact under interpolation.
    std::vector<std::uint64_t> counts(100, 7);
    AccessCdf cdf = AccessCdf::fromSortedCounts(counts, 10);
    EXPECT_EQ(cdf.granules(), 10u);
    EXPECT_EQ(cdf.rowsAtGranule(1), 10u);
    for (std::uint64_t x = 0; x <= 100; x += 7) {
        EXPECT_NEAR(cdf.massOfTopRows(x), x / 100.0, 1e-12)
            << "x=" << x;
    }
}

TEST(AccessCdfTest, FromMassFunction)
{
    const std::uint64_t rows = 1000;
    AccessCdf cdf = AccessCdf::fromMassFunction(
        rows,
        [rows](std::uint64_t x) {
            const double u = static_cast<double>(x) / rows;
            return u * u * (3 - 2 * u); // smoothstep, monotone
        },
        64);
    EXPECT_DOUBLE_EQ(cdf.massOfTopRows(0), 0.0);
    EXPECT_DOUBLE_EQ(cdf.massOfTopRows(rows), 1.0);
    EXPECT_NEAR(cdf.massOfTopRows(500), 0.5, 1e-3);
    double prev = 0;
    for (std::uint64_t x = 0; x <= rows; x += 50) {
        const double m = cdf.massOfTopRows(x);
        EXPECT_GE(m, prev);
        prev = m;
    }
}

TEST(AccessCdfTest, GranuleHelpers)
{
    std::vector<std::uint64_t> counts(100, 1);
    AccessCdf cdf = AccessCdf::fromSortedCounts(counts, 4);
    EXPECT_EQ(cdf.rowsAtGranule(0), 0u);
    EXPECT_EQ(cdf.rowsAtGranule(2), 50u);
    EXPECT_EQ(cdf.rowsAtGranule(4), 100u);
}

TEST(AccessCdfTest, MoreGranulesThanRowsClamps)
{
    AccessCdf cdf = AccessCdf::fromSortedCounts({5, 3, 2}, 1000);
    EXPECT_EQ(cdf.granules(), 3u);
    EXPECT_DOUBLE_EQ(cdf.massOfTopRows(1), 0.5);
}

TEST(AccessCdfTest, LocalityPMatchesConstruction)
{
    const std::uint64_t rows = 10000;
    AccessCdf cdf = AccessCdf::fromMassFunction(
        rows,
        [rows](std::uint64_t x) {
            // Top 10% covers 90%.
            const double u = static_cast<double>(x) / rows;
            if (u <= 0.1)
                return 0.9 * (u / 0.1);
            return 0.9 + 0.1 * (u - 0.1) / 0.9;
        },
        100);
    EXPECT_NEAR(cdf.localityP(), 0.9, 1e-9);
}

TEST(AccessCdfTest, MassOfRangeRejectsInvertedRange)
{
    AccessCdf cdf = AccessCdf::fromSortedCounts({2, 1}, 2);
    EXPECT_THROW(cdf.massOfRange(2, 1), ConfigError);
}

} // namespace
} // namespace erec::embedding
