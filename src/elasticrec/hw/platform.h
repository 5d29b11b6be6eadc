#pragma once

/**
 * @file
 * Hardware platform descriptions.
 *
 * The paper evaluates two clusters (Section V-A):
 *  - CPU-only: dual-socket Intel Xeon Gold 6242 nodes (2 x 32 logical
 *    cores, 2 x 192 GB DRAM, 128 GB/s per socket), 10 Gbps network.
 *  - CPU-GPU: GKE n1-standard-32 nodes (32 vCPUs, 120 GB DRAM) with an
 *    NVIDIA Tesla T4 over PCIe, 32 Gbps network.
 *
 * Since the physical machines are unavailable, each spec also carries
 * *serving-efficiency* calibration constants (effective small-batch GEMM
 * throughput, per-gather software overhead, per-query dispatch cost)
 * that model a PyTorch/libtorch-style inference stack. Absolute numbers
 * are approximations; the evaluation relies on the relative behaviour
 * (compute-bound MLPs vs bandwidth-bound gathers), which these models
 * preserve.
 */

#include <cstdint>
#include <string>

#include "elasticrec/common/units.h"

namespace erec::hw {

/** CPU complex of a node (all sockets combined). */
struct CpuSpec
{
    std::string name;
    /** Logical cores available to containers on the node. */
    std::uint32_t logicalCores = 64;
    /** DRAM capacity of the node. */
    Bytes memCapacity = 384 * units::kGiB;
    /** Aggregate DRAM bandwidth (bytes/sec). */
    double memBandwidth = 256e9;
    /**
     * Effective per-core fp32 throughput for small-batch inference
     * GEMMs (FLOPs/sec). Orders of magnitude below peak AVX-512
     * throughput: production serving runs tiny batches through an
     * interpreted framework (libtorch operator dispatch, memory-bound
     * activations), and the constant is calibrated so per-replica QPS
     * and the dense/sparse latency split land in the regime the
     * paper's Figures 3(b) and 5 report.
     */
    double effFlopsPerCore = 4e7;
    /**
     * Intra-op parallelism cap: one query's dense operators scale to
     * at most this many cores (framework thread-pool scaling
     * saturates well below a dual-socket node's 64 threads). Larger
     * containers run more queries, not faster ones.
     */
    std::uint32_t intraOpParallelism = 24;
    /** Fraction of peak bandwidth achieved by random row gathers. */
    double randomAccessEfficiency = 0.15;
    /**
     * Per-gather software overhead (framework lookup path: bounds
     * checks, pointer chasing, TLB/cache misses on a multi-GiB
     * table), ns; parallelized across the container's cores.
     */
    double perLookupOverheadNs = 8000.0;
    /** Per-query dense-layer dispatch overhead (framework), us. */
    double denseDispatchUs = 35000.0;
    /** Per-table gather-operator dispatch overhead (EmbeddingBag
     *  launch inside a local, monolithic server), us. */
    double sparseDispatchUs = 1500.0;
    /**
     * Fixed software-path overhead of serving one gather request as a
     * standalone microservice (gRPC server decode/encode, Linkerd
     * proxy hop, response assembly), us. This is what makes the
     * Figure 9 QPS curve flat below ~1000 gathers.
     */
    double sparseRpcOverheadUs = 5000.0;
};

/** Discrete GPU attached to a node. */
struct GpuSpec
{
    std::string name;
    /** Peak usable fp32 throughput (FLOPs/sec). */
    double peakFlops = 8.1e12;
    /** HBM/GDDR bandwidth (bytes/sec). */
    double hbmBandwidth = 320e9;
    /** Device memory capacity. */
    Bytes hbmCapacity = 16 * units::kGiB;
    /** Host-to-device transfer bandwidth (bytes/sec, PCIe 3.0 x16). */
    double pcieBandwidth = 12e9;
    /** Per-query kernel-launch + framework overhead (one inference
     *  runs tens of kernels plus a host sync), us. */
    double kernelOverheadUs = 4500.0;
    /**
     * Per-table overhead of a fused GPU embedding-cache lookup
     * (hash-table probe kernel + launch), us. Calibrated so a 90%-hit
     * cache cuts embedding-layer latency by roughly the 47% reported
     * in Section VI-E.
     */
    double cacheLookupOverheadUs = 1200.0;
};

/** A cluster node. */
struct NodeSpec
{
    std::string name;
    CpuSpec cpu;
    bool hasGpu = false;
    GpuSpec gpu;
    /** NIC bandwidth (bytes/sec). */
    double netBandwidth = 10e9 / 8.0;
    /** One-way base network latency between nodes. */
    SimTime netBaseLatency = 100; // 100 us

    /** Dollar-cost weight of one node (relative units, for Fig 15/18). */
    double costUnits = 1.0;
};

/** Paper CPU-only node: dual-socket Xeon Gold 6242, 10 Gbps network. */
NodeSpec cpuOnlyNode();

/** Paper CPU-GPU node: GKE n1-standard-32 + Tesla T4, 32 Gbps network. */
NodeSpec cpuGpuNode();

} // namespace erec::hw
