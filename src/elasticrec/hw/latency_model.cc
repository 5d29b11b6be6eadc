#include "elasticrec/hw/latency_model.h"

#include <algorithm>
#include <cmath>

#include "elasticrec/common/error.h"

namespace erec::hw {

namespace {

SimTime
secondsToTicks(double s)
{
    return static_cast<SimTime>(s * 1e6 + 0.5);
}

} // namespace

LatencyModel::LatencyModel(NodeSpec node) : node_(std::move(node))
{
    ERC_CHECK(node_.cpu.logicalCores > 0, "node needs CPU cores");
    ERC_CHECK(node_.cpu.effFlopsPerCore > 0 && node_.cpu.memBandwidth > 0,
              "CPU throughput parameters must be positive");
}

SimTime
LatencyModel::denseCpuTime(std::uint64_t flops, std::uint32_t cores) const
{
    ERC_CHECK(cores > 0, "container needs at least one core");
    const std::uint32_t effective =
        std::min(cores, node_.cpu.intraOpParallelism);
    const double compute_s =
        static_cast<double>(flops) /
        (static_cast<double>(effective) * node_.cpu.effFlopsPerCore);
    const double dispatch_s = node_.cpu.denseDispatchUs * 1e-6;
    return secondsToTicks(compute_s + dispatch_s);
}

SimTime
LatencyModel::denseGpuTime(std::uint64_t flops, Bytes io_bytes) const
{
    ERC_CHECK(node_.hasGpu, "node has no GPU");
    const double compute_s =
        static_cast<double>(flops) / node_.gpu.peakFlops;
    const double pcie_s =
        static_cast<double>(io_bytes) / node_.gpu.pcieBandwidth;
    const double overhead_s = node_.gpu.kernelOverheadUs * 1e-6;
    // PCIe transfers overlap poorly with tiny serving kernels; charge
    // them serially.
    return secondsToTicks(compute_s + pcie_s + overhead_s);
}

double
LatencyModel::randomBandwidthShare(std::uint32_t cores) const
{
    const double share = std::min(
        1.0, static_cast<double>(cores) /
                 static_cast<double>(node_.cpu.logicalCores));
    return node_.cpu.memBandwidth * node_.cpu.randomAccessEfficiency *
           share;
}

SimTime
LatencyModel::gatherCpuTime(std::size_t num_gathers, Bytes row_bytes,
                            std::uint32_t cores) const
{
    ERC_CHECK(cores > 0, "container needs at least one core");
    const double traffic_s =
        static_cast<double>(num_gathers * row_bytes) /
        randomBandwidthShare(cores);
    const double overhead_s = static_cast<double>(num_gathers) *
                              node_.cpu.perLookupOverheadNs * 1e-9 /
                              static_cast<double>(cores);
    const double dispatch_s = node_.cpu.sparseDispatchUs * 1e-6;
    return secondsToTicks(traffic_s + overhead_s + dispatch_s);
}

SimTime
LatencyModel::cachedGatherTime(std::size_t num_gathers, double hit_rate,
                               Bytes row_bytes,
                               std::uint32_t cores) const
{
    ERC_CHECK(node_.hasGpu, "embedding cache needs a GPU");
    ERC_CHECK(hit_rate >= 0.0 && hit_rate <= 1.0,
              "hit rate must be in [0, 1]");
    const auto hits = static_cast<std::size_t>(
        hit_rate * static_cast<double>(num_gathers));
    const std::size_t misses = num_gathers - hits;

    // Fused cache-probe kernel on HBM for the hits.
    const double hbm_s = static_cast<double>(hits * row_bytes) /
                         (node_.gpu.hbmBandwidth * 0.5);
    double total_s =
        node_.gpu.cacheLookupOverheadUs * 1e-6 + hbm_s;
    if (misses > 0) {
        // CPU fallback path shares the cached operator's dispatch, so
        // only the per-lookup and traffic terms are charged.
        const double miss_s =
            static_cast<double>(misses) *
                node_.cpu.perLookupOverheadNs * 1e-9 /
                static_cast<double>(cores) +
            static_cast<double>(misses * row_bytes) /
                randomBandwidthShare(cores);
        total_s += miss_s;
    }
    return secondsToTicks(total_s);
}

} // namespace erec::hw
