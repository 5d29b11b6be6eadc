#pragma once

/**
 * @file
 * Deployment planning: turns a DLRM workload, a hardware platform and
 * per-table access CDFs into a set of shard specifications that the
 * cluster layer deploys and autoscales.
 *
 * Three planners are provided:
 *  - ElasticRec (the paper's proposal): one dense DNN shard type plus
 *    per-table embedding shards produced by the DP partitioner
 *    (Algorithm 2) over the utility-based cost model (Algorithm 1).
 *  - Model-wise (the baseline): one monolithic shard holding the entire
 *    model; dense and sparse execute as tandem stages inside one
 *    container.
 *  - Model-wise + GPU embedding cache (Section VI-E): monolithic, but a
 *    fraction of embedding gathers hit a GPU-resident cache.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "elasticrec/common/units.h"
#include "elasticrec/core/cost_model.h"
#include "elasticrec/core/dp_partitioner.h"
#include "elasticrec/core/qps_model.h"
#include "elasticrec/embedding/access_cdf.h"
#include "elasticrec/hw/latency_model.h"
#include "elasticrec/model/dlrm_config.h"

namespace erec::core {

enum class ShardKind
{
    Dense,           //!< Bottom/top MLP + interaction microservice.
    SparseEmbedding, //!< One partitioned embedding shard microservice.
    Monolithic,      //!< Whole model in one container (baseline).
};

const char *toString(ShardKind kind);

/** One deployable shard (containerized microservice) type. */
struct ShardSpec
{
    std::string name;
    ShardKind kind = ShardKind::Dense;

    /** Sparse only: which embedding table this shard belongs to. */
    std::uint32_t tableId = 0;
    /** Sparse only: shard index within the table (0 = hottest). */
    std::uint32_t shardId = 0;
    /** Sparse only: covered hotness-sorted row range. */
    std::uint64_t beginRow = 0;
    std::uint64_t endRow = 0;

    /** Container memory request (parameters + min allocation). */
    Bytes memBytes = 0;
    /** Cores requested by one replica. */
    std::uint32_t cpuCores = 1;
    /** True when the container also requests the node's GPU. */
    bool usesGpu = false;

    /** Sustained throughput of one replica (queries/sec). */
    double qpsPerReplica = 0.0;
    /**
     * Per-stage processing latencies. Dense and sparse shards have one
     * stage; monolithic shards have two (dense stage, sparse stage)
     * that pipeline across queries inside the container.
     */
    std::vector<SimTime> stageLatencies;
    /** Sparse only: expected gathers per query landing here (n_s). */
    double expectedGathers = 0.0;

    /**
     * Per-query processing latency of one replica, excluding queueing
     * and network: the sum of the stage latencies (throughput is set
     * by the slowest stage).
     */
    SimTime serviceLatency() const;
};

/** A complete deployment plan for one serving policy. */
struct DeploymentPlan
{
    std::string policy;
    model::DlrmConfig config;
    std::vector<ShardSpec> shards;

    /** Replicas of `spec` needed to sustain target_qps (>= 1). */
    static std::uint32_t replicasForTarget(const ShardSpec &spec,
                                           double target_qps);

    /** Total memory consumption at the given fleet target QPS. */
    Bytes memoryForTarget(double target_qps) const;

    /** Shards belonging to one table, sorted by shardId. */
    std::vector<const ShardSpec *> tableShards(std::uint32_t table) const;

    /** The dense (or monolithic) shard spec. */
    const ShardSpec &frontendShard() const;
};

/**
 * Planner knobs. The DP's search space (512 candidate boundaries,
 * S_max = 16) is DpPartitioner::Options' default.
 */
struct PlannerOptions
{
    /** Per-container minimum memory allocation. */
    Bytes minMemAlloc = 256 * units::kMiB;
    /** Cores requested by one dense shard replica. */
    std::uint32_t denseCores = 16;
    /** Cores requested by one sparse shard replica. */
    std::uint32_t sparseCores = 1;
    /**
     * Manual shard-count override for the Figure 12(d) sweep: when
     * non-zero, every table is partitioned into exactly this many
     * shards instead of the DP optimum.
     */
    std::uint32_t forceShards = 0;
    /**
     * When false, skip the hotness sort (Figure 8(a) ablation): the
     * CDF degenerates to uniform mass per row.
     */
    bool sortTables = true;
};

/**
 * Platform-tuned default options: sparse shards request 1 core on the
 * 64-core CPU-only nodes and 2 cores on the 32-core CPU-GPU nodes
 * (where each container's memory-bandwidth share would otherwise be
 * too thin to sustain hot-shard traffic).
 */
PlannerOptions defaultPlannerOptions(const hw::NodeSpec &node);

class Planner
{
  public:
    Planner(model::DlrmConfig config, hw::NodeSpec node,
            PlannerOptions options = {});

    /** Construct with platform-tuned default options. */
    static Planner forPlatform(model::DlrmConfig config,
                               const hw::NodeSpec &node);

    /**
     * Build the ElasticRec plan.
     * @param cdfs Access CDF per table. Pass a single-element vector to
     *        reuse one CDF for every table.
     */
    DeploymentPlan planElasticRec(
        const std::vector<std::shared_ptr<const embedding::AccessCdf>>
            &cdfs) const;

    /** Build the model-wise baseline plan. */
    DeploymentPlan planModelWise() const;

    /** Hit rate of the GPU embedding cache (the paper evaluates 0.9). */
    static constexpr double kGpuCacheHitRate = 0.9;

    /**
     * Model-wise + GPU embedding cache (Section VI-E): kGpuCacheHitRate
     * of embedding gathers are served from GPU HBM. Requires a GPU
     * platform.
     */
    DeploymentPlan planModelWiseGpuCache() const;

    /**
     * Column-wise partitioning baseline (the alternative table-
     * partitioning scheme discussed in Section II-D via Mudigere et
     * al.): each table is split across the embedding dimension into
     * `columns` shards of dim/columns elements. Every gather touches
     * every shard (each returns a partial vector), so all shards see
     * identical load and scale together — no utility-based savings are
     * possible, which is exactly why ElasticRec partitions row-wise by
     * hotness instead.
     */
    DeploymentPlan planColumnWise(std::uint32_t columns) const;

    /**
     * Extension (beyond the paper): ElasticRec with the hottest rows
     * of every table resident in the dense shard's GPU HBM. The dense
     * container serves hot gathers from a fused HBM lookup (no RPC, no
     * CPU hot-shard replicas); only the cold remainder of each table
     * is partitioned into CPU sparse shards. A natural synthesis of
     * Section IV's elastic shards with Section VI-E's GPU embedding
     * cache. Requires a GPU platform.
     *
     * @param cdfs Access CDF per table (or a single shared one).
     * @param hot_rows_per_table Rows of each table pinned in HBM;
     *        must leave room for the dense parameters and fit the
     *        device (validated against half the HBM capacity).
     */
    DeploymentPlan planElasticRecHotCache(
        const std::vector<std::shared_ptr<const embedding::AccessCdf>>
            &cdfs,
        std::uint64_t hot_rows_per_table) const;

    /** Run Algorithm 2 on one table's CDF (exposed for benchmarks). */
    PartitionPlan partitionTable(const embedding::AccessCdf &cdf) const;

    /**
     * Algorithm 1 for one table as this planner prices it: n_t, row
     * bytes, min allocation and the profiled sparse QPS model, at the
     * given fleet target (the DP's constant by default).
     */
    CostModel costModel(std::shared_ptr<const embedding::AccessCdf> cdf,
                        double target_qps =
                            CostModelParams{}.targetTraffic) const;

  private:
    using CdfList = std::vector<std::shared_ptr<const embedding::AccessCdf>>;
    using PartitionFn = std::function<PartitionPlan(
        const CostModel &, const embedding::AccessCdf &)>;

    QpsModel profileSparseQps(Bytes row_bytes) const;
    SimTime denseStageLatency(std::uint32_t cores) const;
    /** Algorithm 2 over the CDF-aligned candidate grid. */
    PartitionPlan partition(const CostModel &cost,
                            const embedding::AccessCdf &cdf) const;
    /**
     * Partition each table's rows [first_row, N) (once per distinct
     * CDF) and append its shards, sized by the cost model that priced
     * them. `partition` returns boundaries relative to first_row.
     */
    void appendTableShards(DeploymentPlan &plan, const CdfList &cdfs,
                           std::uint64_t first_row,
                           const PartitionFn &partition) const;

    /** The dense shard; `hbm_lookups` adds fused HBM gathers. */
    ShardSpec makeDenseSpec(SimTime hbm_lookups) const;
    ShardSpec sparseSpec(std::string name, std::uint32_t table,
                         std::uint32_t shard, std::uint64_t begin,
                         std::uint64_t end, Bytes mem_bytes,
                         double gathers, double qps) const;
    /** A whole-model container whose dense and sparse stages pipeline. */
    ShardSpec monolithicSpec(std::string name, SimTime dense_t,
                             SimTime sparse_t) const;

    model::DlrmConfig config_;
    hw::LatencyModel lat_;
    PlannerOptions options_;
    std::shared_ptr<const QpsModel> sparseQps_;
};

} // namespace erec::core
