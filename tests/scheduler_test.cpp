/**
 * @file
 * Tests for bin-packing pod replicas onto nodes (Figures 15/18 input)
 * and for the resource request each pod brings to it.
 */

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/cluster/scheduler.h"

namespace erec::cluster {
namespace {

PodRequest
pod(std::uint32_t cores, Bytes mem, bool gpu = false)
{
    return {"d", ResourceRequest{cores, mem, gpu}};
}

TEST(SchedulerTest, ResourceRequestFromSpec)
{
    core::ShardSpec spec;
    spec.name = "d";
    spec.cpuCores = 4;
    spec.memBytes = 123;
    spec.usesGpu = true;
    const auto req = resourceRequestFor(spec);
    EXPECT_EQ(req.cpuCores, 4u);
    EXPECT_EQ(req.memBytes, 123u);
    EXPECT_TRUE(req.gpu);
}

TEST(SchedulerTest, PacksByCores)
{
    Scheduler s(hw::cpuOnlyNode()); // 64 cores, 384 GiB
    // 10 pods x 16 cores = 160 cores -> ceil(160/64) = 3 nodes.
    std::vector<PodRequest> pods(10, pod(16, units::kGiB));
    const auto packing = s.pack(pods);
    EXPECT_EQ(packing.numNodes(), 3u);
}

TEST(SchedulerTest, PacksByMemory)
{
    Scheduler s(hw::cpuOnlyNode());
    // 4 pods x 200 GiB exceed a 384 GiB node pairwise.
    std::vector<PodRequest> pods(4, pod(1, 200 * units::kGiB));
    EXPECT_EQ(s.pack(pods).numNodes(), 4u);
}

TEST(SchedulerTest, MixedSizesFirstFitDecreasing)
{
    Scheduler s(hw::cpuOnlyNode());
    // Two big (250 GiB) + four small (100 GiB): FFD pairs each big
    // with one small (350 <= 384) and packs remaining smalls together.
    std::vector<PodRequest> pods;
    pods.push_back(pod(1, 250 * units::kGiB));
    for (int i = 0; i < 4; ++i)
        pods.push_back(pod(1, 100 * units::kGiB));
    pods.push_back(pod(1, 250 * units::kGiB));
    const auto packing = s.pack(pods);
    EXPECT_EQ(packing.numNodes(), 3u);
}

TEST(SchedulerTest, OneGpuPodPerNode)
{
    Scheduler s(hw::cpuGpuNode());
    std::vector<PodRequest> pods(3, pod(4, units::kGiB, true));
    EXPECT_EQ(s.pack(pods).numNodes(), 3u);
    // CPU pods can share those nodes.
    pods.push_back(pod(4, units::kGiB, false));
    EXPECT_EQ(s.pack(pods).numNodes(), 3u);
}

TEST(SchedulerTest, RejectsImpossiblePods)
{
    Scheduler s(hw::cpuOnlyNode());
    EXPECT_THROW(s.pack({pod(128, units::kGiB)}), ConfigError);
    EXPECT_THROW(s.pack({pod(1, 500 * units::kGiB)}), ConfigError);
    EXPECT_THROW(s.pack({pod(1, units::kGiB, true)}), ConfigError);
}

TEST(SchedulerTest, EmptyListPacksZeroNodes)
{
    Scheduler s(hw::cpuOnlyNode());
    EXPECT_EQ(s.pack({}).numNodes(), 0u);
}

TEST(SchedulerTest, AssignmentsCoverEveryPod)
{
    Scheduler s(hw::cpuOnlyNode());
    std::vector<PodRequest> pods(17, pod(8, 10 * units::kGiB));
    const auto packing = s.pack(pods);
    std::size_t assigned = 0;
    for (const auto &node : packing.nodes) {
        assigned += node.podIndices.size();
        EXPECT_LE(node.usedCores, 64u);
        EXPECT_LE(node.usedMem, 384 * units::kGiB);
    }
    EXPECT_EQ(assigned, pods.size());
}

} // namespace
} // namespace erec::cluster
