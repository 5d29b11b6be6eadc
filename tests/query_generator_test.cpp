/**
 * @file
 * Tests for query generation: the index/offset array layout of
 * Figure 11, pooling factors, per-table distributions and determinism.
 */

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/workload/query_generator.h"

namespace erec::workload {
namespace {

QueryShape
smallShape()
{
    QueryShape s;
    s.batchSize = 4;
    s.numTables = 3;
    s.gathersPerItem = 8;
    return s;
}

TEST(QueryGeneratorTest, ShapeOfGeneratedQuery)
{
    QueryGenerator gen(smallShape(),
                       std::make_shared<UniformDistribution>(1000));
    const Query q = gen.next(123);
    EXPECT_EQ(q.arrival, 123);
    EXPECT_EQ(q.batchSize, 4u);
    ASSERT_EQ(q.lookups.size(), 3u);
    for (const auto &l : q.lookups) {
        EXPECT_EQ(l.batchSize(), 4u);
        EXPECT_EQ(l.indices.size(), 32u); // 4 items x 8 gathers
        // Offsets must be monotone and start at 0.
        EXPECT_EQ(l.offsets.front(), 0u);
        for (std::size_t i = 1; i < l.offsets.size(); ++i)
            EXPECT_LE(l.offsets[i - 1], l.offsets[i]);
        // Each item contributes exactly gathersPerItem IDs.
        for (std::size_t i = 1; i < l.offsets.size(); ++i)
            EXPECT_EQ(l.offsets[i] - l.offsets[i - 1], 8u);
    }
}

TEST(QueryGeneratorTest, IdsWithinTableRange)
{
    QueryGenerator gen(smallShape(),
                       std::make_shared<LocalityDistribution>(500, 0.9));
    for (int i = 0; i < 50; ++i) {
        const Query q = gen.next();
        for (const auto &l : q.lookups)
            for (auto id : l.indices)
                ASSERT_LT(id, 500u);
    }
}

TEST(QueryGeneratorTest, QueryIdsIncrement)
{
    QueryGenerator gen(smallShape(),
                       std::make_shared<UniformDistribution>(100));
    EXPECT_EQ(gen.next().id, 0u);
    EXPECT_EQ(gen.next().id, 1u);
    EXPECT_EQ(gen.next().id, 2u);
}

TEST(QueryGeneratorTest, DeterministicForSeed)
{
    QueryGenerator a(smallShape(),
                     std::make_shared<UniformDistribution>(1000), 9);
    QueryGenerator b(smallShape(),
                     std::make_shared<UniformDistribution>(1000), 9);
    const Query qa = a.next();
    const Query qb = b.next();
    EXPECT_EQ(qa.lookups[0].indices, qb.lookups[0].indices);
    EXPECT_EQ(qa.lookups[2].indices, qb.lookups[2].indices);
}

TEST(QueryGeneratorTest, PerTableDistributions)
{
    QueryShape s = smallShape();
    s.numTables = 2;
    std::vector<AccessDistributionPtr> dists = {
        std::make_shared<UniformDistribution>(10),
        std::make_shared<UniformDistribution>(100000),
    };
    QueryGenerator gen(s, dists);
    const Query q = gen.next();
    for (auto id : q.lookups[0].indices)
        ASSERT_LT(id, 10u);
    bool saw_large = false;
    for (auto id : q.lookups[1].indices)
        saw_large = saw_large || id >= 10;
    EXPECT_TRUE(saw_large);
}

TEST(QueryGeneratorTest, RejectsBadConfig)
{
    EXPECT_THROW(QueryGenerator(smallShape(),
                                std::vector<AccessDistributionPtr>{}),
                 ConfigError);
}

} // namespace
} // namespace erec::workload
