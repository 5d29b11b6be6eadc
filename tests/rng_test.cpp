/**
 * @file
 * Unit tests for erec::Rng: determinism, stream independence, and the
 * statistical sanity of each sampler.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "elasticrec/common/error.h"
#include "elasticrec/common/rng.h"

namespace erec {
namespace {

TEST(RngTest, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias)
{
    Rng rng(11);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(std::uint64_t{10})];
    for (int c : counts) {
        // Each bucket should hold ~10% of samples.
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
    }
}

TEST(RngTest, UniformIntInclusiveRange)
{
    Rng rng(13);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(std::int64_t{-2}, std::int64_t{2});
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ExponentialMeanMatchesRate)
{
    Rng rng(17);
    const double rate = 4.0;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(RngTest, NormalMomentsMatch)
{
    Rng rng(19);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(3.0, 2.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, PoissonSmallAndLargeMeans)
{
    Rng rng(23);
    for (double mean : {0.5, 5.0, 50.0, 200.0}) {
        double sum = 0.0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(rng.poisson(mean));
        EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05)
            << "mean=" << mean;
    }
}

TEST(RngTest, PoissonZeroMeanIsZero)
{
    Rng rng(29);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(RngTest, SplitStreamsAreIndependent)
{
    Rng parent(5);
    Rng child = parent.split();
    // Child and parent should produce different streams.
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (parent.next() == child.next())
            ++equal;
    EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformIntRejectsZero)
{
    Rng rng(37);
    EXPECT_THROW(rng.uniformInt(std::uint64_t{0}), InternalError);
}

} // namespace
} // namespace erec
