/**
 * @file
 * Tests for the bucketization algorithm (Section IV-C, Figure 11):
 * per-shard index/offset splitting, shard-local ID rebasing, inverse
 * permutation handling, and the round-trip property that bucketized
 * gathers reconstruct the original lookup.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "elasticrec/common/error.h"
#include "elasticrec/common/rng.h"
#include "elasticrec/core/bucketizer.h"

namespace erec::core {
namespace {

TEST(BucketizerTest, Figure11StyleExample)
{
    // A 10-row table split into shard A = rows [0, 6) and shard B =
    // rows [6, 10), two batch items.
    Bucketizer bucketizer({6, 10});
    workload::SparseLookup in;
    in.indices = {1, 7, 5, 9, 8, 3};
    in.offsets = {0, 2}; // item 0: {1, 7}; item 1: {5, 9, 8, 3}

    const auto out = bucketizer.bucketize(in);
    ASSERT_EQ(out.size(), 2u);

    // Shard A keeps original IDs (base 0).
    EXPECT_EQ(out[0].indices, (std::vector<std::uint32_t>{1, 5, 3}));
    EXPECT_EQ(out[0].offsets, (std::vector<std::uint32_t>{0, 1}));

    // Shard B IDs are rebased by subtracting the size of shard A (6),
    // exactly the Figure 11 step.
    EXPECT_EQ(out[1].indices, (std::vector<std::uint32_t>{1, 3, 2}));
    EXPECT_EQ(out[1].offsets, (std::vector<std::uint32_t>{0, 1}));
}

TEST(BucketizerTest, EveryShardKeepsFullBatchOffsets)
{
    Bucketizer bucketizer({2, 4, 8});
    workload::SparseLookup in;
    in.indices = {0, 1}; // all gathers land in shard 0
    in.offsets = {0, 1};
    const auto out = bucketizer.bucketize(in);
    ASSERT_EQ(out.size(), 3u);
    for (const auto &shard : out)
        EXPECT_EQ(shard.offsets.size(), 2u);
    EXPECT_TRUE(out[1].indices.empty());
    EXPECT_TRUE(out[2].indices.empty());
}

TEST(BucketizerTest, ShardOfUsesBoundaries)
{
    Bucketizer bucketizer({6, 10});
    EXPECT_EQ(bucketizer.shardOf(0), 0u);
    EXPECT_EQ(bucketizer.shardOf(5), 0u);
    EXPECT_EQ(bucketizer.shardOf(6), 1u);
    EXPECT_EQ(bucketizer.shardOf(9), 1u);
    EXPECT_EQ(bucketizer.numShards(), 2u);
}

TEST(BucketizerTest, InversePermutationRoutesByHotness)
{
    // 4 rows; hotness ranks: id 2 -> rank 0, id 0 -> 1, id 3 -> 2,
    // id 1 -> 3. Shard 0 covers ranks [0, 2) = ids {2, 0}.
    std::vector<std::uint32_t> inv = {1, 3, 0, 2};
    Bucketizer bucketizer({2, 4}, inv);
    EXPECT_EQ(bucketizer.shardOf(2), 0u);
    EXPECT_EQ(bucketizer.shardOf(0), 0u);
    EXPECT_EQ(bucketizer.shardOf(3), 1u);
    EXPECT_EQ(bucketizer.shardOf(1), 1u);

    workload::SparseLookup in;
    in.indices = {0, 1, 2, 3};
    in.offsets = {0};
    const auto out = bucketizer.bucketize(in);
    // Shard 0 sees ranks {1, 0} -> local {1, 0}.
    EXPECT_EQ(out[0].indices, (std::vector<std::uint32_t>{1, 0}));
    // Shard 1 sees ranks {3, 2} -> local {1, 0}.
    EXPECT_EQ(out[1].indices, (std::vector<std::uint32_t>{1, 0}));
}

TEST(BucketizerTest, RoundTripPreservesEveryGather)
{
    // Property: the multiset of (shard base + local id) over all shard
    // outputs equals the multiset of input ranks, per batch item.
    Rng rng(17);
    const std::uint64_t rows = 500;
    std::vector<std::uint64_t> boundaries = {50, 120, 300, 500};
    Bucketizer bucketizer(boundaries);

    for (int trial = 0; trial < 20; ++trial) {
        workload::SparseLookup in;
        const int batch = 1 + static_cast<int>(rng.uniformInt(
                                  std::uint64_t{5}));
        for (int b = 0; b < batch; ++b) {
            in.offsets.push_back(
                static_cast<std::uint32_t>(in.indices.size()));
            const int gathers = static_cast<int>(
                rng.uniformInt(std::uint64_t{16}));
            for (int g = 0; g < gathers; ++g)
                in.indices.push_back(static_cast<std::uint32_t>(
                    rng.uniformInt(rows)));
        }
        const auto out = bucketizer.bucketize(in);

        for (int b = 0; b < batch; ++b) {
            // Reconstruct this item's gathers from all shards.
            std::multiset<std::uint32_t> reconstructed;
            for (std::uint32_t s = 0; s < out.size(); ++s) {
                const std::uint64_t base =
                    s == 0 ? 0 : boundaries[s - 1];
                const std::size_t begin = out[s].offsets[b];
                const std::size_t end =
                    (static_cast<std::size_t>(b) + 1 <
                     out[s].offsets.size())
                        ? out[s].offsets[b + 1]
                        : out[s].indices.size();
                for (std::size_t i = begin; i < end; ++i)
                    reconstructed.insert(static_cast<std::uint32_t>(
                        base + out[s].indices[i]));
            }
            std::multiset<std::uint32_t> original;
            const std::size_t begin = in.offsets[b];
            const std::size_t end =
                (static_cast<std::size_t>(b) + 1 < in.offsets.size())
                    ? in.offsets[b + 1]
                    : in.indices.size();
            for (std::size_t i = begin; i < end; ++i)
                original.insert(in.indices[i]);
            EXPECT_EQ(reconstructed, original)
                << "trial " << trial << " item " << b;
        }
    }
}

/** A lookup of `batch` bags of `pooling` random IDs below `rows`. */
workload::SparseLookup
randomLookup(std::size_t batch, std::size_t pooling, std::uint64_t rows,
             Rng &rng)
{
    workload::SparseLookup in;
    for (std::size_t b = 0; b < batch; ++b) {
        in.offsets.push_back(static_cast<std::uint32_t>(in.indices.size()));
        for (std::size_t g = 0; g < pooling; ++g)
            in.indices.push_back(
                static_cast<std::uint32_t>(rng.uniformInt(rows)));
    }
    return in;
}

TEST(BucketizerTest, IntoReusedBufferMatchesBucketize)
{
    // Long lookups through an inverse permutation (the prefetching
    // path), into one buffer reused across calls of varying shape.
    const std::uint64_t rows = 1000;
    std::vector<std::uint32_t> inv(rows);
    std::iota(inv.begin(), inv.end(), 0u);
    Rng rng(23);
    for (std::uint64_t i = rows - 1; i > 0; --i)
        std::swap(inv[i], inv[rng.uniformInt(i + 1)]);
    const Bucketizer bucketizer({100, 350, 1000}, inv);

    std::vector<workload::SparseLookup> buf;
    for (const std::size_t pooling : {40, 3, 0, 128}) {
        const auto in = randomLookup(/*batch=*/5, pooling, rows, rng);
        bucketizer.bucketizeInto(in, &buf);
        const auto expect = bucketizer.bucketize(in);
        ASSERT_EQ(buf.size(), expect.size());
        for (std::size_t s = 0; s < buf.size(); ++s) {
            EXPECT_EQ(buf[s].indices, expect[s].indices) << pooling;
            EXPECT_EQ(buf[s].offsets, expect[s].offsets) << pooling;
        }
    }
}

TEST(BucketizerTest, RejectsOutOfRangeIdAtEndOfLookup)
{
    // The prefetch runs ahead of the reads and must skip a bad ID; the
    // read then rejects it, here in the last positions of the lookup.
    const std::uint64_t rows = 1000;
    std::vector<std::uint32_t> inv(rows);
    std::iota(inv.begin(), inv.end(), 0u);
    const Bucketizer bucketizer({100, 1000}, inv);
    Rng rng(29);
    for (const std::size_t from_end : {1, 2, 15}) {
        auto in = randomLookup(/*batch=*/4, /*pooling=*/32, rows, rng);
        in.indices[in.indices.size() - from_end] =
            static_cast<std::uint32_t>(rows + from_end);
        std::vector<workload::SparseLookup> buf;
        EXPECT_THROW(bucketizer.bucketizeInto(in, &buf), ConfigError)
            << from_end;
    }
}

TEST(BucketizerTest, LocalIdsWithinShardRange)
{
    Bucketizer bucketizer({100, 350, 1000});
    workload::SparseLookup in;
    Rng rng(23);
    in.offsets = {0};
    for (int i = 0; i < 200; ++i)
        in.indices.push_back(
            static_cast<std::uint32_t>(rng.uniformInt(
                std::uint64_t{1000})));
    const auto out = bucketizer.bucketize(in);
    const std::vector<std::uint64_t> sizes = {100, 250, 650};
    for (std::uint32_t s = 0; s < 3; ++s)
        for (auto id : out[s].indices)
            ASSERT_LT(id, sizes[s]);
}

TEST(BucketizerTest, RejectsBadInputs)
{
    EXPECT_THROW(Bucketizer({}), ConfigError);
    EXPECT_THROW(Bucketizer({5, 5}), ConfigError);
    EXPECT_THROW(Bucketizer({10}, std::vector<std::uint32_t>(3)),
                 ConfigError);
    Bucketizer ok({10});
    EXPECT_THROW(ok.shardOf(10), ConfigError);
    workload::SparseLookup bad;
    bad.indices = {11};
    bad.offsets = {0};
    EXPECT_THROW(ok.bucketize(bad), ConfigError);
}

} // namespace
} // namespace erec::core
