/**
 * @file
 * Tests for the access-frequency history and the hotness sort
 * preprocessing step (Figure 8).
 */

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/common/rng.h"
#include "elasticrec/embedding/frequency_tracker.h"
#include "elasticrec/workload/access_distribution.h"

namespace erec::embedding {
namespace {

TEST(FrequencyTrackerTest, CountsAccesses)
{
    FrequencyTracker t(4);
    t.recordAll({0, 1, 1, 3, 3, 3});
    EXPECT_EQ(t.count(0), 1u);
    EXPECT_EQ(t.count(1), 2u);
    EXPECT_EQ(t.count(2), 0u);
    EXPECT_EQ(t.count(3), 3u);
    EXPECT_EQ(t.totalAccesses(), 6u);
}

TEST(FrequencyTrackerTest, SortPermutationOrdersByHotness)
{
    FrequencyTracker t(4);
    t.recordAll({0, 1, 1, 3, 3, 3});
    const auto perm = t.sortPermutation();
    // Hottest first: row 3 (3 hits), row 1 (2), row 0 (1), row 2 (0).
    EXPECT_EQ(perm, (std::vector<std::uint32_t>{3, 1, 0, 2}));
}

TEST(FrequencyTrackerTest, TiesBrokenById)
{
    FrequencyTracker t(3);
    t.recordAll({2, 0});
    const auto perm = t.sortPermutation();
    EXPECT_EQ(perm, (std::vector<std::uint32_t>{0, 2, 1}));
}

TEST(FrequencyTrackerTest, InverseUndoesPermutation)
{
    FrequencyTracker t(5);
    t.recordAll({4, 4, 4, 2, 2, 0});
    const auto perm = t.sortPermutation();
    const auto inv = FrequencyTracker::invertPermutation(perm);
    for (std::uint32_t rank = 0; rank < perm.size(); ++rank)
        EXPECT_EQ(inv[perm[rank]], rank);
}

TEST(FrequencyTrackerTest, InverseRejectsNonPermutations)
{
    // Out of range.
    EXPECT_THROW(FrequencyTracker::invertPermutation({0, 3, 1}),
                 ConfigError);
    // A duplicate (so ID 1 is missing): without the check, ID 1 would
    // keep inverse 0 and be routed to the hottest row.
    EXPECT_THROW(FrequencyTracker::invertPermutation({2, 0, 2}),
                 ConfigError);
    EXPECT_THROW(FrequencyTracker::invertPermutation({0, 0}), ConfigError);
    EXPECT_EQ(FrequencyTracker::invertPermutation({}),
              std::vector<std::uint32_t>{});
    EXPECT_EQ(FrequencyTracker::invertPermutation({2, 0, 1}),
              (std::vector<std::uint32_t>{1, 2, 0}));
}

TEST(FrequencyTrackerTest, TopRowsCoverage)
{
    FrequencyTracker t(10);
    // Row 7 gets 90 hits, the rest 10 spread out.
    for (int i = 0; i < 90; ++i)
        t.record(7);
    for (std::uint32_t r = 0; r < 10; ++r)
        t.record(r);
    EXPECT_NEAR(t.topRowsCoverage(1), 0.91, 1e-9);
    EXPECT_NEAR(t.topRowsCoverage(10), 1.0, 1e-9);
}

TEST(FrequencyTrackerTest, BuildCdfMatchesCoverage)
{
    FrequencyTracker t(100);
    Rng rng(13);
    workload::LocalityDistribution dist(100, 0.9);
    for (int i = 0; i < 100000; ++i)
        t.record(static_cast<std::uint32_t>(dist.sampleRank(rng)));
    const AccessCdf cdf = t.buildCdf(100);
    // The measured CDF should recover the distribution's P = 0.9 over
    // the top 10% of (sorted) rows.
    EXPECT_NEAR(cdf.massOfTopRows(10), 0.9, 0.02);
    EXPECT_NEAR(cdf.localityP(), 0.9, 0.02);
}

TEST(FrequencyTrackerTest, CdfBeforeRecordingThrows)
{
    FrequencyTracker t(10);
    EXPECT_THROW(t.buildCdf(), ConfigError);
}

TEST(FrequencyTrackerTest, OutOfRangeThrows)
{
    FrequencyTracker t(10);
    EXPECT_THROW(t.record(10), ConfigError);
    EXPECT_THROW(t.count(11), ConfigError);
}

} // namespace
} // namespace erec::embedding
