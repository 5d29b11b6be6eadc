#include "elasticrec/cluster/deployment.h"

#include <algorithm>

namespace erec::cluster {

ResourceRequest
resourceRequestFor(const core::ShardSpec &spec)
{
    ResourceRequest req;
    req.cpuCores = spec.cpuCores;
    req.memBytes = spec.memBytes;
    req.gpu = spec.usesGpu;
    return req;
}

runtime::ExecutorOptions
executorOptionsFor(const core::ShardSpec &spec)
{
    runtime::ExecutorOptions opts;
    opts.workers = std::max(1u, spec.cpuCores);
    return opts;
}

Deployment::Deployment(core::ShardSpec spec, std::uint32_t initial_replicas)
    : spec_(std::move(spec)), desired_(std::max(1u, initial_replicas))
{
}

void
Deployment::setDesiredReplicas(std::uint32_t n)
{
    desired_ = std::clamp(n, kMinReplicas, kMaxReplicas);
}

} // namespace erec::cluster
