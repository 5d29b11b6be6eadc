/**
 * @file
 * Tests for the hardware platform specs and the roofline latency model.
 */

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/hw/latency_model.h"
#include "elasticrec/hw/platform.h"

namespace erec::hw {
namespace {

TEST(PlatformTest, PaperNodeSpecs)
{
    const auto cpu = cpuOnlyNode();
    EXPECT_EQ(cpu.cpu.logicalCores, 64u); // dual socket x 32 threads
    EXPECT_EQ(cpu.cpu.memCapacity, 384 * units::kGiB);
    EXPECT_DOUBLE_EQ(cpu.cpu.memBandwidth, 256e9);
    EXPECT_FALSE(cpu.hasGpu);
    EXPECT_DOUBLE_EQ(cpu.netBandwidth, 10e9 / 8.0);

    const auto gpu = cpuGpuNode();
    EXPECT_EQ(gpu.cpu.logicalCores, 32u);
    EXPECT_EQ(gpu.cpu.memCapacity, 120 * units::kGiB);
    EXPECT_TRUE(gpu.hasGpu);
    EXPECT_EQ(gpu.gpu.hbmCapacity, 16 * units::kGiB);
    EXPECT_GT(gpu.costUnits, cpu.costUnits);
}

TEST(LatencyModelTest, DenseCpuScalesWithFlopsAndCores)
{
    LatencyModel lat(cpuOnlyNode());
    const auto t1 = lat.denseCpuTime(1'000'000'000, 8);
    const auto t2 = lat.denseCpuTime(2'000'000'000, 8);
    const auto t3 = lat.denseCpuTime(1'000'000'000, 16);
    EXPECT_GT(t2, t1);
    EXPECT_LT(t3, t1);
    // Dispatch floor: even tiny work pays the framework overhead.
    const auto floor = lat.denseCpuTime(1, 64);
    EXPECT_GE(floor, units::fromSeconds(
                         cpuOnlyNode().cpu.denseDispatchUs * 1e-6));
}

TEST(LatencyModelTest, GatherScalesWithCountAndDim)
{
    LatencyModel lat(cpuOnlyNode());
    const auto small = lat.gatherCpuTime(100, 128, 2);
    const auto more = lat.gatherCpuTime(10000, 128, 2);
    const auto wider = lat.gatherCpuTime(10000, 2048, 2);
    EXPECT_GT(more, small);
    EXPECT_GT(wider, more); // larger rows -> more memory traffic
}

TEST(LatencyModelTest, BandwidthShareScalesWithCores)
{
    LatencyModel lat(cpuOnlyNode());
    EXPECT_NEAR(lat.randomBandwidthShare(64),
                256e9 * cpuOnlyNode().cpu.randomAccessEfficiency, 1e-3);
    EXPECT_NEAR(lat.randomBandwidthShare(32),
                lat.randomBandwidthShare(64) / 2, 1e-3);
}

TEST(LatencyModelTest, GpuPathRequiresGpu)
{
    LatencyModel cpu(cpuOnlyNode());
    EXPECT_THROW(cpu.denseGpuTime(1000, 100), ConfigError);
    EXPECT_THROW(cpu.cachedGatherTime(10, 1.0, 128, 1), ConfigError);

    LatencyModel gpu(cpuGpuNode());
    EXPECT_GT(gpu.denseGpuTime(1'000'000, 1000), 0);
}

TEST(LatencyModelTest, GpuDenseFasterThanCpuForHeavyMlp)
{
    // RM3-scale dense work: the T4 should beat the host CPU clearly.
    LatencyModel gpu(cpuGpuNode());
    LatencyModel cpu(cpuOnlyNode());
    const std::uint64_t flops = 89'000'000; // ~RM3 per query
    EXPECT_LT(gpu.denseGpuTime(flops, 100'000),
              cpu.denseCpuTime(flops, 64));
}

TEST(LatencyModelTest, CachedGatherBeatsPlainCpuGather)
{
    // Section VI-E: a 90%-hit GPU cache reduces embedding latency by
    // roughly 47%.
    LatencyModel lat(cpuGpuNode());
    const std::size_t n = 4096;
    const auto plain = lat.gatherCpuTime(n, 128, 32);
    const auto cached = lat.cachedGatherTime(n, 0.9, 128, 32);
    EXPECT_LT(cached, plain);
    const double reduction =
        1.0 - static_cast<double>(cached) / static_cast<double>(plain);
    EXPECT_GT(reduction, 0.25);
    EXPECT_LT(reduction, 0.75);
}

TEST(LatencyModelTest, CachedGatherFullHitHasNoCpuTerm)
{
    LatencyModel lat(cpuGpuNode());
    const auto full = lat.cachedGatherTime(4096, 1.0, 128, 32);
    const auto partial = lat.cachedGatherTime(4096, 0.5, 128, 32);
    EXPECT_LT(full, partial);
}

} // namespace
} // namespace erec::hw
