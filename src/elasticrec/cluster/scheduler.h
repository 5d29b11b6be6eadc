#pragma once

/**
 * @file
 * What a deployment's pods ask of the cluster. A deployment is the
 * unit Kubernetes scales (one per shard type in ElasticRec, one per
 * whole model in the baseline), and each of its pods requests the
 * cores, memory and GPU its shard spec names. The scheduler bin-packs
 * those pods first-fit-decreasing onto homogeneous nodes to answer
 * "how many server nodes does this deployment need?" (Figures 15 and
 * 18). The simulator keeps each deployment's replica count and pods
 * (sim::ClusterSimulation).
 */

#include <cstdint>
#include <vector>

#include "elasticrec/core/planner.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/runtime/executor.h"

namespace erec::cluster {

/** One deployment's pods: `replicas` pods, each requesting the cores,
 *  memory and GPU its shard spec names. */
struct PodGroup
{
    const core::ShardSpec *spec = nullptr;
    std::uint32_t replicas = 0;
};

class Scheduler
{
  public:
    explicit Scheduler(hw::NodeSpec node);

    /**
     * Nodes that first-fit-decreasing (by memory, then cores; pods of
     * equal size keep the groups' order) needs for the pods. Throws
     * ConfigError naming the deployment if one of its pods cannot fit
     * an empty node.
     */
    std::uint32_t countNodes(std::vector<PodGroup> groups) const;

  private:
    hw::NodeSpec node_;
};

/**
 * Size a pod's serving executor from its shard spec: one worker per
 * requested CPU core, so a dispatcher on it runs one pump thread per
 * core the scheduler bin-packs for the replica. This is the bridge
 * between the planner's per-shard resource math and the functional
 * runtime. Only runtime_serving_test calls it so far: it stays for
 * ROADMAP item 10, whose real-stack HPA sizes its pools with it.
 */
runtime::ExecutorOptions executorOptionsFor(const core::ShardSpec &spec);

} // namespace erec::cluster
