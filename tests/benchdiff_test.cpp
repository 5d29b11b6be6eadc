/**
 * @file
 * Tests for the perf-gate comparator (tools/benchdiff): tolerance
 * parsing and the regression verdict per sweep point. The JSON parser
 * it reads bench files with is tested in json_test.cpp.
 */

#include <gtest/gtest.h>

#include <string>

#include "elasticrec/common/error.h"
#include "tools/benchdiff/benchdiff_core.h"

namespace erec::benchdiff {
namespace {

std::string
benchJson(double qps1, double qps2)
{
    return "{\n  \"bench\": \"serving_throughput\",\n"
           "  \"quick\": true,\n  \"sweep\": [\n"
           "    {\"threads\": 1, \"qps\": " +
           std::to_string(qps1) +
           ", \"p50_ms\": 1.5},\n"
           "    {\"threads\": 4, \"qps\": " +
           std::to_string(qps2) +
           ", \"p50_ms\": 2.0}\n  ],\n  \"scaling\": 2.0\n}\n";
}

TEST(BenchdiffToleranceTest, AcceptsPercentAndFraction)
{
    EXPECT_DOUBLE_EQ(parseTolerance("15%"), 0.15);
    EXPECT_DOUBLE_EQ(parseTolerance("0.15"), 0.15);
    EXPECT_DOUBLE_EQ(parseTolerance("0%"), 0.0);
    EXPECT_THROW(parseTolerance("abc"), ConfigError);
    EXPECT_THROW(parseTolerance("1.5"), ConfigError);
    EXPECT_THROW(parseTolerance("-5%"), ConfigError);
    EXPECT_THROW(parseTolerance(""), ConfigError);
}

TEST(BenchdiffCompareTest, WithinToleranceAndFasterPass)
{
    const auto baseline = parseJson(benchJson(1000, 2500));
    // One point 10% down (inside 15%), one point faster.
    const auto report = compare(
        baseline, parseJson(benchJson(900, 4000)), 0.15);
    EXPECT_TRUE(report.pass);
    ASSERT_EQ(report.points.size(), 2u);
    EXPECT_FALSE(report.points[0].regressed);
    EXPECT_FALSE(report.points[1].regressed);
    EXPECT_NE(formatReport(report).find("PASS"), std::string::npos);
}

TEST(BenchdiffCompareTest, RegressionBeyondToleranceFails)
{
    const auto baseline = parseJson(benchJson(1000, 2500));
    const auto report = compare(
        baseline, parseJson(benchJson(700, 2500)), 0.15);
    EXPECT_FALSE(report.pass);
    EXPECT_TRUE(report.points[0].regressed);
    EXPECT_FALSE(report.points[1].regressed);
    EXPECT_NEAR(report.points[0].ratio, 0.7, 1e-9);
    EXPECT_NE(formatReport(report).find("FAIL"), std::string::npos);
    EXPECT_NE(formatReport(report).find("REGRESSED"),
              std::string::npos);
}

TEST(BenchdiffCompareTest, ExactlyAtToleranceBoundaryPasses)
{
    const auto baseline = parseJson(benchJson(1000, 2500));
    // 850 == 1000 * (1 - 0.15): the gate fails strictly below.
    const auto report = compare(
        baseline, parseJson(benchJson(850, 2500)), 0.15);
    EXPECT_TRUE(report.pass);
}

TEST(BenchdiffCompareTest, MissingBaselinePointFails)
{
    const auto baseline = parseJson(benchJson(1000, 2500));
    const auto current = parseJson(
        R"({"sweep": [{"threads": 1, "qps": 1000}]})");
    const auto report = compare(baseline, current, 0.15);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.points.size(), 2u);
    EXPECT_TRUE(report.points[1].missing);
    EXPECT_NE(formatReport(report).find("MISSING"), std::string::npos);
}

TEST(BenchdiffCompareTest, ExtraCurrentPointsIgnored)
{
    const auto baseline = parseJson(
        R"({"sweep": [{"threads": 1, "qps": 1000}]})");
    // Current sweeps more thread counts than the baseline knows.
    const auto report = compare(
        baseline, parseJson(benchJson(1000, 1)), 0.15);
    EXPECT_TRUE(report.pass);
    EXPECT_EQ(report.points.size(), 1u);
}

TEST(BenchdiffCompareTest, RejectsDocumentsWithoutSweep)
{
    const auto good = parseJson(benchJson(1000, 2500));
    EXPECT_THROW(compare(parseJson("{}"), good, 0.15), ConfigError);
    EXPECT_THROW(compare(good, parseJson(R"({"sweep": []})"), 0.15),
                 ConfigError);
    EXPECT_THROW(
        compare(good,
                parseJson(R"({"sweep": [{"threads": 1}]})"), 0.15),
        ConfigError);
    // Duplicate thread counts are ambiguous.
    EXPECT_THROW(
        compare(parseJson(R"({"sweep": [{"threads": 1, "qps": 1},
                                        {"threads": 1, "qps": 2}]})"),
                good, 0.15),
        ConfigError);
}

TEST(BenchdiffCompareTest, CustomSweepKeyMatchesPoints)
{
    // The kernel bench keys its sweep on "point" ids, not "threads".
    const auto baseline = parseJson(
        R"({"sweep": [{"point": 0, "qps": 10}, {"point": 4, "qps": 5}]})");
    const auto good = compare(
        baseline,
        parseJson(R"({"sweep": [{"point": 0, "qps": 12},
                                {"point": 4, "qps": 5}]})"),
        0.15, {}, "point");
    EXPECT_TRUE(good.pass);
    EXPECT_EQ(good.keyName, "point");
    ASSERT_EQ(good.points.size(), 2u);
    EXPECT_EQ(good.points[1].keyValue, 4u);
    EXPECT_NE(formatReport(good).find("point=4"), std::string::npos);

    // A current run missing a baseline point id fails.
    const auto missing = compare(
        baseline, parseJson(R"({"sweep": [{"point": 0, "qps": 12}]})"),
        0.15, {}, "point");
    EXPECT_FALSE(missing.pass);
    EXPECT_TRUE(missing.points[1].missing);

    // Entries lacking the configured key are a schema error.
    EXPECT_THROW(
        compare(baseline,
                parseJson(R"({"sweep": [{"threads": 1, "qps": 9}]})"),
                0.15, {}, "point"),
        ConfigError);
}

std::string
benchJsonWithAllocs(double qps1, double qps2, double a1, double a2)
{
    return "{\n  \"sweep\": [\n"
           "    {\"threads\": 1, \"qps\": " +
           std::to_string(qps1) +
           ", \"allocs_per_query\": " + std::to_string(a1) +
           "},\n"
           "    {\"threads\": 4, \"qps\": " +
           std::to_string(qps2) +
           ", \"allocs_per_query\": " + std::to_string(a2) +
           "}\n  ]\n}\n";
}

TEST(BenchdiffMetricToleranceTest, ParsesNameEqualsTolerance)
{
    const auto exact = parseMetricTolerance("allocs_per_query=0");
    EXPECT_EQ(exact.first, "allocs_per_query");
    EXPECT_DOUBLE_EQ(exact.second, 0.0);

    const auto loose = parseMetricTolerance("p50_ms=10%");
    EXPECT_EQ(loose.first, "p50_ms");
    EXPECT_DOUBLE_EQ(loose.second, 0.10);

    EXPECT_THROW(parseMetricTolerance("allocs_per_query"), ConfigError);
    EXPECT_THROW(parseMetricTolerance("=0"), ConfigError);
    EXPECT_THROW(parseMetricTolerance("allocs_per_query=abc"),
                 ConfigError);
}

TEST(BenchdiffMetricToleranceTest, ExactZeroGatePassesAtZero)
{
    const auto baseline =
        parseJson(benchJsonWithAllocs(1000, 2500, 0, 0));
    const auto current =
        parseJson(benchJsonWithAllocs(1100, 2600, 0, 0));
    const auto report = compare(baseline, current, 0.15,
                                {{"allocs_per_query", 0.0}});
    EXPECT_TRUE(report.pass);
    ASSERT_EQ(report.points.size(), 2u);
    ASSERT_EQ(report.points[0].metrics.size(), 1u);
    EXPECT_EQ(report.points[0].metrics[0].name, "allocs_per_query");
    EXPECT_FALSE(report.points[0].metrics[0].regressed);
}

TEST(BenchdiffMetricToleranceTest, ExactZeroGateFailsOnAnyAllocation)
{
    const auto baseline =
        parseJson(benchJsonWithAllocs(1000, 2500, 0, 0));
    // QPS is fine; a single steady-state allocation per query fails.
    const auto current =
        parseJson(benchJsonWithAllocs(1100, 2600, 0, 1));
    const auto report = compare(baseline, current, 0.15,
                                {{"allocs_per_query", 0.0}});
    EXPECT_FALSE(report.pass);
    EXPECT_FALSE(report.points[1].metrics.empty());
    EXPECT_TRUE(report.points[1].metrics[0].regressed);
    EXPECT_NE(formatReport(report).find("REGRESSED"),
              std::string::npos);
}

TEST(BenchdiffMetricToleranceTest, LowerIsBetterWithNonzeroTolerance)
{
    const auto baseline =
        parseJson(benchJsonWithAllocs(1000, 2500, 10, 10));
    // +5% is inside a 10% band; improvement is always fine.
    const auto ok = compare(
        baseline, parseJson(benchJsonWithAllocs(1000, 2500, 10.5, 2)),
        0.15, {{"allocs_per_query", 0.10}});
    EXPECT_TRUE(ok.pass);
    // +50% is out.
    const auto bad = compare(
        baseline, parseJson(benchJsonWithAllocs(1000, 2500, 15, 10)),
        0.15, {{"allocs_per_query", 0.10}});
    EXPECT_FALSE(bad.pass);
}

TEST(BenchdiffMetricToleranceTest, MetricMissingFromCurrentFails)
{
    const auto baseline =
        parseJson(benchJsonWithAllocs(1000, 2500, 0, 0));
    // A current run that silently drops the metric must not pass the
    // gate by omission.
    const auto current = parseJson(benchJson(1100, 2600));
    const auto report = compare(baseline, current, 0.15,
                                {{"allocs_per_query", 0.0}});
    EXPECT_FALSE(report.pass);
    ASSERT_FALSE(report.points[0].metrics.empty());
    EXPECT_TRUE(report.points[0].metrics[0].missing);
    EXPECT_NE(formatReport(report).find("MISSING"), std::string::npos);
}

TEST(BenchdiffMetricToleranceTest, MetricMissingFromBaselineIsConfigError)
{
    // Gating on a metric the baseline never recorded is an operator
    // mistake (exit 2), not a regression verdict.
    const auto baseline = parseJson(benchJson(1000, 2500));
    const auto current =
        parseJson(benchJsonWithAllocs(1000, 2500, 0, 0));
    EXPECT_THROW(compare(baseline, current, 0.15,
                         {{"allocs_per_query", 0.0}}),
                 ConfigError);
}

} // namespace
} // namespace erec::benchdiff
