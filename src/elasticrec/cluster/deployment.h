#pragma once

/**
 * @file
 * Deployment bookkeeping: a deployment is the unit Kubernetes scales —
 * one per shard type in ElasticRec, one per whole model in the
 * baseline. It tracks the desired replica count (set by the HPA) and
 * the identities of its pods (owned by the simulator).
 */

#include <cstdint>
#include <string>
#include <vector>

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

class Deployment
{
  public:
    Deployment(core::ShardSpec spec, std::uint32_t initial_replicas);

    const std::string &name() const { return spec_.name; }
    const core::ShardSpec &spec() const { return spec_; }
    ResourceRequest request() const { return resourceRequestFor(spec_); }

    /** Bounds the desired count is clamped to. */
    static constexpr std::uint32_t kMinReplicas = 1;
    static constexpr std::uint32_t kMaxReplicas = 256;

    std::uint32_t desiredReplicas() const { return desired_; }
    void setDesiredReplicas(std::uint32_t n);

  private:
    core::ShardSpec spec_;
    std::uint32_t desired_;
};

} // namespace erec::cluster
