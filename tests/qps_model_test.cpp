/**
 * @file
 * Tests for the profiling-based QPS regression model (Figure 9).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "elasticrec/common/error.h"
#include "elasticrec/core/qps_model.h"
#include "elasticrec/hw/platform.h"

namespace erec::core {
namespace {

TEST(QpsModelTest, InterpolatesProfilePoints)
{
    QpsModel m({{1, 1000}, {100, 100}, {10000, 1}});
    EXPECT_NEAR(m.qps(1), 1000, 1e-9);
    EXPECT_NEAR(m.qps(100), 100, 1e-9);
    EXPECT_NEAR(m.qps(10000), 1, 1e-9);
    // Log-log interpolation between (1,1000) and (100,100) is a power
    // law with slope -0.5: qps(10) = 1000 * 10^-0.5.
    EXPECT_NEAR(m.qps(10), 1000 / std::sqrt(10.0), 1e-6);
}

TEST(QpsModelTest, ClampsBelowRange)
{
    QpsModel m({{10, 500}, {100, 50}});
    EXPECT_NEAR(m.qps(0.0), 500, 1e-9);
    EXPECT_NEAR(m.qps(5.0), 500, 1e-9);
}

TEST(QpsModelTest, ExtrapolatesAboveRangeWithLastSlope)
{
    // Slope -1 in the last segment: doubling gathers halves QPS.
    QpsModel m({{1, 1000}, {100, 100}, {200, 50}});
    EXPECT_NEAR(m.qps(400), 25, 1e-6);
}

TEST(QpsModelTest, ServiceTimeIsInverseQps)
{
    QpsModel m({{1, 1000}, {100, 10}});
    EXPECT_EQ(stageTimeForQps(m.qps(100)), units::fromSeconds(0.1));
    EXPECT_DOUBLE_EQ(qpsForStageTime(units::fromSeconds(0.1)), 10.0);
    // A zero-time stage counts as one tick.
    EXPECT_DOUBLE_EQ(qpsForStageTime(0), qpsForStageTime(1));
}

TEST(QpsModelTest, RejectsBadProfiles)
{
    EXPECT_THROW(QpsModel({{1, 100}}), ConfigError);
    EXPECT_THROW(QpsModel({{1, 100}, {1, 50}}), ConfigError);
    EXPECT_THROW(QpsModel({{1, 100}, {2, 0}}), ConfigError);
}

TEST(QpsModelTest, ProfiledCurveIsMonotoneDecreasing)
{
    hw::LatencyModel lat(hw::cpuOnlyNode());
    const auto m = QpsModel::profile(lat, 128, 1, 65536, 5000);
    double prev = 1e18;
    for (const auto &p : m.points()) {
        EXPECT_LT(p.qps, prev);
        prev = p.qps;
    }
    EXPECT_GE(m.points().size(), 10u);
}

TEST(QpsModelTest, ProfiledCurveHasFigure9Shape)
{
    // Flat (overhead-bound) head, then declining with gather count.
    hw::LatencyModel lat(hw::cpuOnlyNode());
    const auto m = QpsModel::profile(lat, 128, 1, 65536, 5000);
    const double q1 = m.qps(1);
    const double q100 = m.qps(100);
    const double q10000 = m.qps(10000);
    // Head: within 2x of the zero-gather ceiling.
    EXPECT_GT(q100, q1 / 2);
    // Tail: at least an order of magnitude below the head.
    EXPECT_LT(q10000, q1 / 10);
}

TEST(QpsModelTest, LargerRowsLowerQps)
{
    // Figure 9: larger embedding dimensions shift the curve down.
    hw::LatencyModel lat(hw::cpuOnlyNode());
    const auto dim32 = QpsModel::profile(lat, 32 * 4, 1, 65536);
    const auto dim512 = QpsModel::profile(lat, 512 * 4, 1, 65536);
    EXPECT_GT(dim32.qps(50000), dim512.qps(50000));
}

} // namespace
} // namespace erec::core
