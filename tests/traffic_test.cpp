/**
 * @file
 * Tests for traffic patterns and the Poisson arrival process.
 */

#include <gtest/gtest.h>

#include <limits>

#include "elasticrec/common/error.h"
#include "elasticrec/workload/traffic.h"

namespace erec::workload {
namespace {

TEST(TrafficPatternTest, ConstantRate)
{
    const auto p = TrafficPattern::constant(42.0);
    EXPECT_DOUBLE_EQ(p.qpsAt(0), 42.0);
    EXPECT_DOUBLE_EQ(p.qpsAt(100 * units::kMinute), 42.0);
}

TEST(TrafficPatternTest, StepLookup)
{
    TrafficPattern p({{0, 10.0},
                      {10 * units::kSecond, 20.0},
                      {20 * units::kSecond, 5.0}});
    EXPECT_DOUBLE_EQ(p.qpsAt(0), 10.0);
    EXPECT_DOUBLE_EQ(p.qpsAt(9 * units::kSecond), 10.0);
    EXPECT_DOUBLE_EQ(p.qpsAt(10 * units::kSecond), 20.0);
    EXPECT_DOUBLE_EQ(p.qpsAt(19 * units::kSecond), 20.0);
    EXPECT_DOUBLE_EQ(p.qpsAt(25 * units::kSecond), 5.0);
}

TEST(TrafficPatternTest, Fig19Schedule)
{
    const auto p = TrafficPattern::fig19();
    // Base rate before the ramp.
    EXPECT_DOUBLE_EQ(p.qpsAt(0), 20.0);
    EXPECT_DOUBLE_EQ(p.qpsAt(4 * units::kMinute), 20.0);
    // Five equal increments between minutes 5 and 20.
    EXPECT_DOUBLE_EQ(p.qpsAt(5 * units::kMinute), 36.0);
    EXPECT_DOUBLE_EQ(p.qpsAt(8 * units::kMinute + 1), 52.0);
    // Peak before the drop.
    EXPECT_DOUBLE_EQ(p.qpsAt(23 * units::kMinute), 100.0);
    // Back to base at minute 24.
    EXPECT_DOUBLE_EQ(p.qpsAt(24 * units::kMinute), 20.0);
}

TEST(TrafficPatternTest, DiurnalRaisedCosine)
{
    TrafficPattern::DiurnalOptions d;
    d.troughQps = 100.0;
    d.peakQps = 500.0;
    d.period = 4 * units::kMinute;
    d.step = units::kSecond;
    d.duration = 8 * units::kMinute;
    const auto p = TrafficPattern::diurnal(d);

    // Trough at the cycle boundaries, peak at half period, midpoint
    // of the swing at the quarter points.
    EXPECT_DOUBLE_EQ(p.qpsAt(0), 100.0);
    EXPECT_DOUBLE_EQ(p.qpsAt(2 * units::kMinute), 500.0);
    EXPECT_NEAR(p.qpsAt(units::kMinute), 300.0, 1e-9);
    EXPECT_NEAR(p.qpsAt(3 * units::kMinute), 300.0, 1e-9);
    // Cycles repeat across the full schedule.
    EXPECT_DOUBLE_EQ(p.qpsAt(4 * units::kMinute), 100.0);
    EXPECT_DOUBLE_EQ(p.qpsAt(6 * units::kMinute), 500.0);
    // The rate never leaves the [trough, peak] envelope.
    for (SimTime t = 0; t < d.duration; t += d.step) {
        EXPECT_GE(p.qpsAt(t), d.troughQps);
        EXPECT_LE(p.qpsAt(t), d.peakQps);
    }
}

TEST(TrafficPatternTest, DiurnalRejectsBadOptions)
{
    TrafficPattern::DiurnalOptions d;
    d.troughQps = -1.0;
    EXPECT_THROW(TrafficPattern::diurnal(d), ConfigError);
    d = {};
    d.peakQps = d.troughQps - 1.0;
    EXPECT_THROW(TrafficPattern::diurnal(d), ConfigError);
    d = {};
    d.step = 0;
    EXPECT_THROW(TrafficPattern::diurnal(d), ConfigError);
    d = {};
    d.period = d.step / 2;
    EXPECT_THROW(TrafficPattern::diurnal(d), ConfigError);
    d = {};
    d.duration = 0;
    EXPECT_THROW(TrafficPattern::diurnal(d), ConfigError);
}

TEST(TrafficPatternTest, RejectsBadSteps)
{
    EXPECT_THROW(TrafficPattern({}), ConfigError);
    EXPECT_THROW(TrafficPattern({{10, 1.0}, {10, 2.0}}), ConfigError);
    EXPECT_THROW(TrafficPattern({{0, -1.0}}), ConfigError);
}

TEST(PoissonArrivalsTest, RateMatchesPattern)
{
    PoissonArrivals arrivals(TrafficPattern::constant(100.0), 5);
    SimTime t = 0;
    int count = 0;
    const SimTime horizon = 100 * units::kSecond;
    while (true) {
        t = arrivals.nextAfter(t);
        if (t > horizon)
            break;
        ++count;
    }
    // ~100 QPS x 100 s = 10000 arrivals, Poisson sd = 100.
    EXPECT_NEAR(count, 10000, 400);
}

TEST(PoissonArrivalsTest, ArrivalsStrictlyIncrease)
{
    PoissonArrivals arrivals(TrafficPattern::fig19(), 7);
    SimTime t = 0;
    for (int i = 0; i < 10000; ++i) {
        const SimTime next = arrivals.nextAfter(t);
        ASSERT_GT(next, t);
        t = next;
    }
}

TEST(PoissonArrivalsTest, RespectsRateChange)
{
    // 10 QPS for 10 s then 100 QPS for 10 s.
    TrafficPattern p({{0, 10.0}, {10 * units::kSecond, 100.0}});
    PoissonArrivals arrivals(p, 11);
    int low = 0, high = 0;
    SimTime t = 0;
    while (true) {
        t = arrivals.nextAfter(t);
        if (t > 20 * units::kSecond)
            break;
        if (t <= 10 * units::kSecond)
            ++low;
        else
            ++high;
    }
    EXPECT_NEAR(low, 100, 40);
    EXPECT_NEAR(high, 1000, 150);
}

TEST(PoissonArrivalsTest, ZeroRateForeverReturnsNever)
{
    TrafficPattern p({{0, 10.0}, {units::kMinute, 0.0}});
    PoissonArrivals arrivals(p, 3);
    SimTime t = 0;
    // Drain the active period...
    while (true) {
        const SimTime next = arrivals.nextAfter(t);
        if (next == std::numeric_limits<SimTime>::max())
            break;
        ASSERT_LE(next, units::kMinute + units::kSecond);
        t = next;
    }
    // ...after which, from any point past the last boundary, the
    // process reports "never" stably.
    EXPECT_EQ(arrivals.nextAfter(2 * units::kMinute),
              std::numeric_limits<SimTime>::max());
    EXPECT_EQ(arrivals.nextAfter(2 * units::kMinute),
              std::numeric_limits<SimTime>::max());
}

TEST(TrafficPatternTest, RandomWalkStaysInBounds)
{
    const auto p = TrafficPattern::randomWalk(
        40.0, 10.0, 100.0, 30 * units::kSecond, 30 * units::kMinute,
        9);
    EXPECT_DOUBLE_EQ(p.qpsAt(0), 40.0);
    for (const auto &s : p.steps()) {
        EXPECT_GE(s.qps, 10.0);
        EXPECT_LE(s.qps, 100.0);
    }
    // 60 steps over 30 minutes at 30 s.
    EXPECT_EQ(p.steps().size(), 60u);
}

TEST(TrafficPatternTest, RandomWalkDeterministicPerSeed)
{
    const auto a = TrafficPattern::randomWalk(
        40.0, 10.0, 100.0, units::kMinute, 10 * units::kMinute, 4);
    const auto b = TrafficPattern::randomWalk(
        40.0, 10.0, 100.0, units::kMinute, 10 * units::kMinute, 4);
    const auto c = TrafficPattern::randomWalk(
        40.0, 10.0, 100.0, units::kMinute, 10 * units::kMinute, 5);
    for (std::size_t i = 0; i < a.steps().size(); ++i)
        EXPECT_DOUBLE_EQ(a.steps()[i].qps, b.steps()[i].qps);
    bool differs = false;
    for (std::size_t i = 0; i < a.steps().size(); ++i)
        differs = differs || a.steps()[i].qps != c.steps()[i].qps;
    EXPECT_TRUE(differs);
}

TEST(TrafficPatternTest, RandomWalkRejectsBadArgs)
{
    EXPECT_THROW(TrafficPattern::randomWalk(5.0, 10.0, 100.0,
                                            units::kSecond,
                                            units::kMinute),
                 ConfigError);
    EXPECT_THROW(TrafficPattern::randomWalk(50.0, 10.0, 100.0, 0,
                                            units::kMinute),
                 ConfigError);
}

} // namespace
} // namespace erec::workload
