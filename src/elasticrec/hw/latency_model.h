#pragma once

/**
 * @file
 * Analytic (roofline-style) operator latency model.
 *
 * Dense MLP work is compute-bound: time = dispatch overhead +
 * FLOPs / (allocated cores x effective per-core throughput), or the GPU
 * equivalent with PCIe input transfer and kernel-launch overhead.
 *
 * Sparse embedding gathers are memory-bound: time = dispatch overhead +
 * per-gather software overhead (parallelized over allocated cores) +
 * gather traffic / the container's random-access bandwidth share.
 *
 * Containers receive a bandwidth share proportional to their core share
 * of the node, matching how cgroup cpu limits throttle achievable
 * memory parallelism in practice.
 */

#include <cstdint>

#include "elasticrec/common/units.h"
#include "elasticrec/hw/platform.h"

namespace erec::hw {

class LatencyModel
{
  public:
    explicit LatencyModel(NodeSpec node);

    const NodeSpec &node() const { return node_; }

    /**
     * Dense MLP + interaction latency on CPU.
     * @param flops Total FLOPs of the query's dense work.
     * @param cores Cores allocated to the container.
     */
    SimTime denseCpuTime(std::uint64_t flops, std::uint32_t cores) const;

    /**
     * Dense MLP + interaction latency on the node's GPU.
     * @param flops Total FLOPs of the query's dense work.
     * @param io_bytes Host-to-device input + device-to-host output
     *        bytes moved over PCIe for the query.
     */
    SimTime denseGpuTime(std::uint64_t flops, Bytes io_bytes) const;

    /**
     * Embedding gather + pool latency from CPU DRAM.
     * @param num_gathers Number of rows gathered.
     * @param row_bytes Bytes per embedding row.
     * @param cores Cores allocated to the container.
     */
    SimTime gatherCpuTime(std::size_t num_gathers, Bytes row_bytes,
                          std::uint32_t cores) const;

    /**
     * One table's embedding-layer latency with a GPU-side embedding
     * cache: `hit_rate` of the gathers are served by a fused HBM
     * lookup kernel, the rest fall back to the CPU gather path. Every
     * HBM gather is charged here: the model-wise + GPU-cache baseline
     * of Section VI-E and, at hit rate 1, the hot shards ElasticRec
     * keeps resident in HBM.
     */
    SimTime cachedGatherTime(std::size_t num_gathers, double hit_rate,
                             Bytes row_bytes, std::uint32_t cores) const;

    /** The container's random-access bandwidth share (bytes/sec). */
    double randomBandwidthShare(std::uint32_t cores) const;

  private:
    NodeSpec node_;
};

} // namespace erec::hw
