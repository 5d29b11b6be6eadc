#pragma once

/**
 * @file
 * Cluster scheduler: first-fit-decreasing bin packing of pod replicas
 * onto homogeneous nodes, respecting core, memory and GPU constraints.
 * Used to answer "how many server nodes does this deployment need?"
 * (Figures 15 and 18).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "elasticrec/cluster/deployment.h"
#include "elasticrec/hw/platform.h"

namespace erec::cluster {

/** One pod to place. */
struct PodRequest
{
    std::string deployment;
    ResourceRequest resources;
};

/** Result of packing onto one node. */
struct NodeAssignment
{
    std::vector<std::uint32_t> podIndices; //!< Into the input pod list.
    std::uint32_t usedCores = 0;
    Bytes usedMem = 0;
    bool gpuUsed = false;
};

/** Full packing result. */
struct Packing
{
    std::vector<NodeAssignment> nodes;

    std::uint32_t numNodes() const
    {
        return static_cast<std::uint32_t>(nodes.size());
    }
};

class Scheduler
{
  public:
    explicit Scheduler(hw::NodeSpec node);

    /**
     * Pack the pods onto as few nodes as first-fit-decreasing (by
     * memory, then cores) achieves. Throws ConfigError if any single
     * pod cannot fit an empty node.
     */
    Packing pack(const std::vector<PodRequest> &pods) const;

    const hw::NodeSpec &node() const { return node_; }

  private:
    bool fits(const NodeAssignment &na, const ResourceRequest &r) const;

    hw::NodeSpec node_;
};

} // namespace erec::cluster
