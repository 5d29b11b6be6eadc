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
     * Per-query processing latency of one replica, excluding queueing
     * and network (for monolithic shards this is the sum of the dense
     * and sparse stage latencies; throughput is set by the slower
     * stage).
     */
    SimTime serviceLatency = 0;
    /**
     * Per-stage processing latencies. Dense and sparse shards have one
     * stage; monolithic shards have two (dense stage, sparse stage)
     * that pipeline across queries inside the container.
     */
    std::vector<SimTime> stageLatencies;
    /** Sparse only: expected gathers per query landing here (n_s). */
    double expectedGathers = 0.0;
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

    /** Total replica count across all shard types at the target. */
    std::uint32_t totalReplicasForTarget(double target_qps) const;

    /** Shards belonging to one table, sorted by shardId. */
    std::vector<const ShardSpec *> tableShards(std::uint32_t table) const;

    /** The dense (or monolithic) shard spec. */
    const ShardSpec &frontendShard() const;
};

/** Planner knobs. */
struct PlannerOptions
{
    /** DP candidate granularity over each table. */
    std::uint32_t granules = 512;
    /** S_max for the DP partitioner. */
    std::uint32_t maxShards = 16;
    /** Per-container minimum memory allocation. */
    Bytes minMemAlloc = 256 * units::kMiB;
    /** Cores requested by one dense shard replica. */
    std::uint32_t denseCores = 16;
    /** Cores requested by one sparse shard replica. */
    std::uint32_t sparseCores = 1;
    /** Target-traffic constant of the DP cost model (Algorithm 1). */
    double dpTargetTraffic = 1000.0;
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

    const model::DlrmConfig &config() const { return config_; }
    const PlannerOptions &options() const { return options_; }

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

    /**
     * Model-wise + GPU embedding cache (Section VI-E): `hit_rate` of
     * embedding gathers are served from GPU HBM (the paper evaluates
     * 0.9). Requires a GPU platform.
     */
    DeploymentPlan planModelWiseGpuCache(double hit_rate = 0.9) const;

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

    /** The profiling-based QPS regression for a sparse container. */
    std::shared_ptr<const QpsModel> sparseQpsModel() const;

    /** One dense shard replica's throughput. */
    double denseQpsPerReplica() const;

    /** One dense shard replica's per-query latency. */
    SimTime denseLatency() const;

    /** Monolithic sparse-stage latency (all tables, local). */
    SimTime monolithicSparseLatency() const;

  private:
    CostModelParams costParams() const;
    ShardSpec makeDenseSpec() const;
    SimTime denseStageLatency(std::uint32_t cores) const;

    model::DlrmConfig config_;
    hw::LatencyModel lat_;
    PlannerOptions options_;
    std::shared_ptr<const QpsModel> sparseQps_;
};

} // namespace erec::core
