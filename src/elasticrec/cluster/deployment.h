#pragma once

/**
 * @file
 * What a deployment's pods ask of the cluster: a deployment is the
 * unit Kubernetes scales (one per shard type in ElasticRec, one per
 * whole model in the baseline), and each of its pods requests the
 * resources its shard spec names. The simulator keeps each
 * deployment's replica count and pods (sim::ClusterSimulation).
 */

#include <cstdint>

#include "elasticrec/core/planner.h"
#include "elasticrec/runtime/executor.h"

namespace erec::cluster {

/** Resource request of one pod, derived from its shard spec. */
struct ResourceRequest
{
    std::uint32_t cpuCores = 1;
    Bytes memBytes = 0;
    bool gpu = false;
};

/** Build the pod resource request for a shard spec. */
ResourceRequest resourceRequestFor(const core::ShardSpec &spec);

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
