/**
 * @file
 * Tests for the deployment-cost model (Algorithm 1): n_s estimation via
 * the CDF, replica counts, capacity and total cost.
 */

#include <gtest/gtest.h>

#include <memory>

#include "elasticrec/common/error.h"
#include "elasticrec/core/cost_model.h"

namespace erec::core {
namespace {

std::shared_ptr<const embedding::AccessCdf>
linearCdf(std::uint64_t rows)
{
    return std::make_shared<embedding::AccessCdf>(
        embedding::AccessCdf::fromMassFunction(
            rows,
            [rows](std::uint64_t x) {
                return static_cast<double>(x) /
                       static_cast<double>(rows);
            },
            std::min<std::uint32_t>(256, rows)));
}

std::shared_ptr<const QpsModel>
flatQps(double qps)
{
    // Constant QPS regardless of gathers.
    return std::make_shared<QpsModel>(
        std::vector<ProfilePoint>{{1, qps}, {1e9, qps}});
}

CostModelParams
params()
{
    CostModelParams p;
    p.targetTraffic = 1000;
    p.gathersPerQuery = 4096;
    p.rowBytes = 128;
    p.minMemAlloc = 1000;
    return p;
}

TEST(CostModelTest, ShardGathersFollowCdf)
{
    CostModel m(linearCdf(1000), flatQps(100), params());
    // Linear CDF: rows [0, 500) hold half the mass.
    EXPECT_NEAR(m.shardGathers(0, 500), 2048, 2);
    EXPECT_NEAR(m.shardGathers(0, 1000), 4096, 1e-6);
    EXPECT_NEAR(m.shardGathers(250, 750), 2048, 2);
}

TEST(CostModelTest, ReplicasCeilAndFloor)
{
    auto p = params();
    CostModel m(linearCdf(100), flatQps(300), p);
    // 1000 / 300 = 3.33 -> ceil 4.
    EXPECT_DOUBLE_EQ(m.replicas(0, 100), 4.0);

    CostModel cheap(linearCdf(100), flatQps(5000), p);
    // 1000 / 5000 = 0.2 -> floored at one replica.
    EXPECT_DOUBLE_EQ(cheap.replicas(0, 100), 1.0);
}

TEST(CostModelTest, CapacityIsRowsTimesBytes)
{
    CostModel m(linearCdf(100), flatQps(100), params());
    EXPECT_EQ(m.capacity(10, 60), 50u * 128);
}

TEST(CostModelTest, CostIsReplicasTimesShardSize)
{
    CostModel m(linearCdf(100), flatQps(250), params());
    // replicas = ceil(1000/250) = 4; size = 100*128 + 1000.
    EXPECT_DOUBLE_EQ(m.cost(0, 100), 4.0 * (100 * 128 + 1000));
}

TEST(CostModelTest, HotShardCostsMoreReplicasThanColdShard)
{
    // Skewed CDF: top 10% of rows hold 90% of mass; a load-dependent
    // QPS model then demands more replicas for the hot shard.
    const std::uint64_t rows = 1000;
    auto cdf = std::make_shared<embedding::AccessCdf>(
        embedding::AccessCdf::fromMassFunction(
            rows,
            [rows](std::uint64_t x) {
                const double u =
                    static_cast<double>(x) / static_cast<double>(rows);
                return u <= 0.1 ? 9.0 * u : 0.9 + (u - 0.1) / 9.0;
            },
            200));
    // QPS inversely proportional to gathers.
    auto qps = std::make_shared<QpsModel>(
        std::vector<ProfilePoint>{{1, 100000}, {100000, 1}});
    CostModel m(cdf, qps, params());
    EXPECT_GT(m.replicas(0, 100), m.replicas(100, 1000));
}

TEST(CostModelTest, SubadditivityOfCapacity)
{
    // Splitting a range never changes total capacity.
    CostModel m(linearCdf(1000), flatQps(100), params());
    EXPECT_EQ(m.capacity(0, 1000),
              m.capacity(0, 400) + m.capacity(400, 1000));
}

TEST(CostModelTest, RejectsInvalidRanges)
{
    CostModel m(linearCdf(100), flatQps(100), params());
    EXPECT_THROW(m.cost(50, 50), ConfigError);
    EXPECT_THROW(m.cost(60, 50), ConfigError);
    EXPECT_THROW(m.cost(0, 101), ConfigError);
}

TEST(CostModelTest, RejectsBadConstruction)
{
    EXPECT_THROW(CostModel(nullptr, flatQps(10), params()),
                 ConfigError);
    EXPECT_THROW(CostModel(linearCdf(10), nullptr, params()),
                 ConfigError);
    auto p = params();
    p.targetTraffic = 0;
    EXPECT_THROW(CostModel(linearCdf(10), flatQps(10), p), ConfigError);
}

} // namespace
} // namespace erec::core
