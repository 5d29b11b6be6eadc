#include "elasticrec/hw/platform.h"

namespace erec::hw {

NodeSpec
cpuOnlyNode()
{
    NodeSpec node;
    node.name = "xeon6242-dual";
    node.cpu.name = "2x Xeon Gold 6242";
    node.cpu.logicalCores = 64;
    node.cpu.memCapacity = 384 * units::kGiB;
    node.cpu.memBandwidth = 256e9; // 2 sockets x 128 GB/s
    node.hasGpu = false;
    node.netBandwidth = 10e9 / 8.0; // 10 Gbps
    node.netBaseLatency = 100;
    node.costUnits = 1.0;
    return node;
}

NodeSpec
cpuGpuNode()
{
    NodeSpec node;
    node.name = "n1-standard-32-t4";
    node.cpu.name = "n1-standard-32";
    node.cpu.logicalCores = 32;
    node.cpu.memCapacity = 120 * units::kGiB;
    node.cpu.memBandwidth = 128e9;
    // The GKE cluster's 32 Gbps fabric and leaner dataplane make the
    // per-request microservice overhead lighter than the on-prem
    // CPU-only cluster's 10 Gbps + Linkerd path.
    node.cpu.sparseRpcOverheadUs = 2000.0;
    node.hasGpu = true;
    node.gpu.name = "Tesla T4";
    node.gpu.peakFlops = 8.1e12;
    node.gpu.hbmBandwidth = 320e9;
    node.gpu.hbmCapacity = 16 * units::kGiB;
    node.gpu.pcieBandwidth = 12e9;
    node.gpu.kernelOverheadUs = 4500.0;
    node.netBandwidth = 32e9 / 8.0; // 32 Gbps
    node.netBaseLatency = 60;
    // A GPU node is costlier than a CPU node; relative on-demand price
    // of n1-standard-32 + T4 vs a comparable CPU-only machine.
    node.costUnits = 1.6;
    return node;
}

} // namespace erec::hw
