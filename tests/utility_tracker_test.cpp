/**
 * @file
 * Tests for the memory-utility tracker behind Figures 14 and 17.
 */

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/core/utility_tracker.h"

namespace erec::core {
namespace {

TEST(UtilityTrackerTest, CountsDistinctTouches)
{
    UtilityTracker t({4, 10});
    t.recordRank(0);
    t.recordRank(0); // duplicate: still one distinct row
    t.recordRank(3);
    t.recordRank(7);
    EXPECT_EQ(t.touchedRows(0), 2u);
    EXPECT_EQ(t.touchedRows(1), 1u);
    EXPECT_DOUBLE_EQ(t.shardUtility(0), 0.5);
    EXPECT_DOUBLE_EQ(t.shardUtility(1), 1.0 / 6.0);
    EXPECT_DOUBLE_EQ(t.overallUtility(), 0.3);
}

TEST(UtilityTrackerTest, ShardRowMath)
{
    UtilityTracker t({4, 10});
    EXPECT_EQ(t.numShards(), 2u);
    EXPECT_EQ(t.shardRows(0), 4u);
    EXPECT_EQ(t.shardRows(1), 6u);
}

TEST(UtilityTrackerTest, MonolithicLayout)
{
    UtilityTracker t({100});
    for (std::uint64_t r = 0; r < 6; ++r)
        t.recordRank(r);
    EXPECT_DOUBLE_EQ(t.shardUtility(0), 0.06);
    EXPECT_DOUBLE_EQ(t.overallUtility(), 0.06);
}

TEST(UtilityTrackerTest, HotShardHasHigherUtility)
{
    // Property from the paper: with skewed access, the hot shard's
    // utility exceeds the cold shard's.
    UtilityTracker t({10, 100});
    // Touch all of shard 0 and a single row of shard 1.
    for (std::uint64_t r = 0; r < 10; ++r)
        t.recordRank(r);
    t.recordRank(50);
    EXPECT_GT(t.shardUtility(0), t.shardUtility(1));
}

TEST(UtilityTrackerTest, RejectsBadInputs)
{
    EXPECT_THROW(UtilityTracker({}), ConfigError);
    EXPECT_THROW(UtilityTracker({5, 5}), ConfigError);
    UtilityTracker t({10});
    EXPECT_THROW(t.recordRank(10), ConfigError);
    EXPECT_THROW(t.shardUtility(1), ConfigError);
}

} // namespace
} // namespace erec::core
