/**
 * @file
 * Unit tests for the statistics primitives: rate windows and time
 * series.
 */

#include <gtest/gtest.h>

#include "elasticrec/common/stats.h"

namespace erec {
namespace {

TEST(RateWindowTest, RateOverWindow)
{
    RateWindow r(10 * units::kSecond);
    for (int i = 0; i < 50; ++i)
        r.add(i * 200 * units::kMillisecond); // 5 events/sec for 10s
    EXPECT_NEAR(r.rate(10 * units::kSecond), 5.0, 0.3);
    EXPECT_EQ(r.total(), 50u);
    // After a long quiet period the rate decays to zero.
    EXPECT_NEAR(r.rate(60 * units::kSecond), 0.0, 1e-9);
    EXPECT_EQ(r.total(), 50u);
}

TEST(RateWindowTest, BatchCounts)
{
    RateWindow r(units::kSecond);
    r.add(0, 10);
    EXPECT_NEAR(r.rate(0), 10.0, 1e-9);
}

TEST(TimeSeriesTest, MaxAndMean)
{
    TimeSeries s;
    s.add(0, 1.0);
    s.add(1, 5.0);
    s.add(2, 3.0);
    EXPECT_DOUBLE_EQ(s.maxValue(), 5.0);
    EXPECT_DOUBLE_EQ(s.meanValue(), 3.0);
    EXPECT_EQ(s.size(), 3u);
}

} // namespace
} // namespace erec
