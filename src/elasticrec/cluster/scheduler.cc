#include "elasticrec/cluster/scheduler.h"

#include <algorithm>

#include "elasticrec/common/error.h"

namespace erec::cluster {

Scheduler::Scheduler(hw::NodeSpec node) : node_(std::move(node))
{
}

std::uint32_t
Scheduler::countNodes(std::vector<PodGroup> groups) const
{
    // Validate that every pod can fit *some* node.
    for (const auto &g : groups) {
        if (g.replicas == 0)
            continue;
        const core::ShardSpec &s = *g.spec;
        ERC_CHECK(s.cpuCores <= node_.cpu.logicalCores,
                  "pod of " << s.name << " requests " << s.cpuCores
                            << " cores, node has "
                            << node_.cpu.logicalCores);
        ERC_CHECK(s.memBytes <= node_.cpu.memCapacity,
                  "pod of " << s.name << " requests "
                            << units::formatBytes(s.memBytes)
                            << ", node has "
                            << units::formatBytes(node_.cpu.memCapacity));
        ERC_CHECK(!s.usesGpu || node_.hasGpu,
                  "pod of " << s.name
                            << " requests a GPU on a CPU-only node");
    }

    // First-fit-decreasing by memory, then cores. A group's pods are
    // identical, so sorting the groups stably orders the pods exactly
    // as a stable sort of the expanded pod list would.
    std::stable_sort(groups.begin(), groups.end(),
                     [](const PodGroup &a, const PodGroup &b) {
                         if (a.spec->memBytes != b.spec->memBytes)
                             return a.spec->memBytes > b.spec->memBytes;
                         return a.spec->cpuCores > b.spec->cpuCores;
                     });

    struct NodeLoad
    {
        std::uint32_t cores = 0;
        Bytes mem = 0;
        bool gpu = false;
    };
    std::vector<NodeLoad> nodes;
    for (const auto &g : groups) {
        const core::ShardSpec &s = *g.spec;
        for (std::uint32_t r = 0; r < g.replicas; ++r) {
            auto slot = std::find_if(
                nodes.begin(), nodes.end(), [&](const NodeLoad &n) {
                    return n.cores + s.cpuCores <=
                               node_.cpu.logicalCores &&
                           n.mem + s.memBytes <= node_.cpu.memCapacity &&
                           !(s.usesGpu && (!node_.hasGpu || n.gpu));
                });
            if (slot == nodes.end())
                slot = nodes.emplace(nodes.end());
            slot->cores += s.cpuCores;
            slot->mem += s.memBytes;
            slot->gpu = slot->gpu || s.usesGpu;
        }
    }
    return static_cast<std::uint32_t>(nodes.size());
}

runtime::ExecutorOptions
executorOptionsFor(const core::ShardSpec &spec)
{
    runtime::ExecutorOptions opts;
    opts.workers = std::max(1u, spec.cpuCores);
    return opts;
}

} // namespace erec::cluster
