#include "elasticrec/cluster/scheduler.h"

#include <algorithm>
#include <numeric>

#include "elasticrec/common/error.h"

namespace erec::cluster {

Scheduler::Scheduler(hw::NodeSpec node) : node_(std::move(node))
{
}

bool
Scheduler::fits(const NodeAssignment &na, const ResourceRequest &r) const
{
    if (na.usedCores + r.cpuCores > node_.cpu.logicalCores)
        return false;
    if (na.usedMem + r.memBytes > node_.cpu.memCapacity)
        return false;
    if (r.gpu && (!node_.hasGpu || na.gpuUsed))
        return false;
    return true;
}

Packing
Scheduler::pack(const std::vector<PodRequest> &pods) const
{
    // Validate that every pod can fit *some* node.
    for (const auto &p : pods) {
        ERC_CHECK(p.resources.cpuCores <= node_.cpu.logicalCores,
                  "pod of " << p.deployment << " requests "
                            << p.resources.cpuCores
                            << " cores, node has "
                            << node_.cpu.logicalCores);
        ERC_CHECK(p.resources.memBytes <= node_.cpu.memCapacity,
                  "pod of " << p.deployment << " requests "
                            << units::formatBytes(p.resources.memBytes)
                            << ", node has "
                            << units::formatBytes(node_.cpu.memCapacity));
        ERC_CHECK(!p.resources.gpu || node_.hasGpu,
                  "pod of " << p.deployment
                            << " requests a GPU on a CPU-only node");
    }

    // First-fit-decreasing by memory, then cores.
    std::vector<std::uint32_t> order(pods.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         if (pods[a].resources.memBytes !=
                             pods[b].resources.memBytes)
                             return pods[a].resources.memBytes >
                                    pods[b].resources.memBytes;
                         return pods[a].resources.cpuCores >
                                pods[b].resources.cpuCores;
                     });

    Packing packing;
    for (auto idx : order) {
        const auto &req = pods[idx].resources;
        NodeAssignment *slot = nullptr;
        for (auto &na : packing.nodes) {
            if (fits(na, req)) {
                slot = &na;
                break;
            }
        }
        if (slot == nullptr) {
            packing.nodes.emplace_back();
            slot = &packing.nodes.back();
        }
        slot->podIndices.push_back(idx);
        slot->usedCores += req.cpuCores;
        slot->usedMem += req.memBytes;
        slot->gpuUsed = slot->gpuUsed || req.gpu;
    }
    return packing;
}

} // namespace erec::cluster
