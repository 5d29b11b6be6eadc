/**
 * @file
 * Tests for bin-packing pod replicas onto nodes (Figures 15/18 input):
 * each pod requests the cores, memory and GPU its shard spec names.
 */

#include <gtest/gtest.h>

#include <deque>

#include "elasticrec/common/error.h"
#include "elasticrec/cluster/scheduler.h"

namespace erec::cluster {
namespace {

/** Owns the specs that the scheduler's pod groups point at. */
class Pods
{
  public:
    Pods &add(std::uint32_t replicas, std::uint32_t cores, Bytes mem,
              bool gpu = false)
    {
        core::ShardSpec &spec = specs_.emplace_back();
        spec.name = "d" + std::to_string(specs_.size());
        spec.cpuCores = cores;
        spec.memBytes = mem;
        spec.usesGpu = gpu;
        groups_.push_back({&spec, replicas});
        return *this;
    }

    const std::vector<PodGroup> &groups() const { return groups_; }

  private:
    std::deque<core::ShardSpec> specs_;
    std::vector<PodGroup> groups_;
};

TEST(SchedulerTest, PacksByCores)
{
    Scheduler s(hw::cpuOnlyNode()); // 64 cores, 384 GiB
    // 10 pods x 16 cores = 160 cores -> ceil(160/64) = 3 nodes.
    EXPECT_EQ(s.countNodes(Pods().add(10, 16, units::kGiB).groups()), 3u);
}

TEST(SchedulerTest, PacksByMemory)
{
    Scheduler s(hw::cpuOnlyNode());
    // 4 pods x 200 GiB exceed a 384 GiB node pairwise.
    EXPECT_EQ(s.countNodes(Pods().add(4, 1, 200 * units::kGiB).groups()),
              4u);
}

TEST(SchedulerTest, MixedSizesFirstFitDecreasing)
{
    Scheduler s(hw::cpuOnlyNode());
    // Two big (250 GiB) + four small (100 GiB): FFD pairs each big
    // with one small (350 <= 384) and packs remaining smalls together.
    Pods pods;
    pods.add(1, 1, 250 * units::kGiB)
        .add(4, 1, 100 * units::kGiB)
        .add(1, 1, 250 * units::kGiB);
    EXPECT_EQ(s.countNodes(pods.groups()), 3u);
}

TEST(SchedulerTest, OneGpuPodPerNode)
{
    Scheduler s(hw::cpuGpuNode());
    Pods pods;
    pods.add(3, 4, units::kGiB, true);
    EXPECT_EQ(s.countNodes(pods.groups()), 3u);
    // CPU pods can share those nodes.
    pods.add(1, 4, units::kGiB, false);
    EXPECT_EQ(s.countNodes(pods.groups()), 3u);
}

TEST(SchedulerTest, RejectsImpossiblePods)
{
    Scheduler s(hw::cpuOnlyNode());
    EXPECT_THROW(s.countNodes(Pods().add(1, 128, units::kGiB).groups()),
                 ConfigError);
    EXPECT_THROW(
        s.countNodes(Pods().add(1, 1, 500 * units::kGiB).groups()),
        ConfigError);
    EXPECT_THROW(
        s.countNodes(Pods().add(1, 1, units::kGiB, true).groups()),
        ConfigError);
}

TEST(SchedulerTest, EmptyListPacksZeroNodes)
{
    Scheduler s(hw::cpuOnlyNode());
    EXPECT_EQ(s.countNodes({}), 0u);
    // A deployment scaled to zero places no pod, so it is not checked.
    EXPECT_EQ(s.countNodes(Pods().add(0, 128, units::kGiB).groups()), 0u);
}

} // namespace
} // namespace erec::cluster
