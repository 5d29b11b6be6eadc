#include "elasticrec/core/planner.h"

#include <algorithm>
#include <cmath>

#include "elasticrec/common/error.h"

namespace erec::core {

const char *
toString(ShardKind kind)
{
    switch (kind) {
      case ShardKind::Dense: return "dense";
      case ShardKind::SparseEmbedding: return "sparse";
      case ShardKind::Monolithic: return "monolithic";
    }
    return "?";
}

std::uint32_t
DeploymentPlan::replicasForTarget(const ShardSpec &spec, double target_qps)
{
    ERC_CHECK(spec.qpsPerReplica > 0, "shard has no throughput estimate");
    const double raw = target_qps / spec.qpsPerReplica;
    return static_cast<std::uint32_t>(std::max(1.0, std::ceil(raw)));
}

Bytes
DeploymentPlan::memoryForTarget(double target_qps) const
{
    Bytes total = 0;
    for (const auto &s : shards)
        total += Bytes{replicasForTarget(s, target_qps)} * s.memBytes;
    return total;
}

std::uint32_t
DeploymentPlan::totalReplicasForTarget(double target_qps) const
{
    std::uint32_t total = 0;
    for (const auto &s : shards)
        total += replicasForTarget(s, target_qps);
    return total;
}

std::vector<const ShardSpec *>
DeploymentPlan::tableShards(std::uint32_t table) const
{
    std::vector<const ShardSpec *> out;
    for (const auto &s : shards) {
        if (s.kind == ShardKind::SparseEmbedding && s.tableId == table)
            out.push_back(&s);
    }
    std::sort(out.begin(), out.end(),
              [](const ShardSpec *a, const ShardSpec *b) {
                  return a->shardId < b->shardId;
              });
    return out;
}

const ShardSpec &
DeploymentPlan::frontendShard() const
{
    for (const auto &s : shards) {
        if (s.kind == ShardKind::Dense || s.kind == ShardKind::Monolithic)
            return s;
    }
    panic("deployment plan has no frontend shard");
}

PlannerOptions
defaultPlannerOptions(const hw::NodeSpec &node)
{
    PlannerOptions opt;
    if (node.hasGpu) {
        opt.sparseCores = 2;
        // GPU-centric dense containers only need host cores to feed
        // the accelerator.
        opt.denseCores = 4;
        // GKE container images (CUDA runtime included) carry a larger
        // baseline footprint; with this the DP chooses 3 shards per
        // table for all three workloads, matching Section VI-C.
        opt.minMemAlloc = 512 * units::kMiB;
    }
    return opt;
}

Planner
Planner::forPlatform(model::DlrmConfig config, const hw::NodeSpec &node)
{
    return Planner(std::move(config), node, defaultPlannerOptions(node));
}

Planner::Planner(model::DlrmConfig config, hw::NodeSpec node,
                 PlannerOptions options)
    : config_(std::move(config)), lat_(std::move(node)),
      options_(options)
{
    ERC_CHECK(options_.denseCores > 0 && options_.sparseCores > 0,
              "shard core requests must be positive");
    ERC_CHECK(options_.denseCores <= lat_.node().cpu.logicalCores &&
                  options_.sparseCores <= lat_.node().cpu.logicalCores,
              "shard core request exceeds the node size");
    const Bytes row_bytes = Bytes{config_.embeddingDim} * sizeof(float);
    const auto max_gathers = std::max<std::uint64_t>(
        65536, 4 * config_.gathersPerQueryPerTable());
    sparseQps_ = std::make_shared<QpsModel>(QpsModel::profile(
        lat_, row_bytes, options_.sparseCores, max_gathers,
        static_cast<SimTime>(lat_.node().cpu.sparseRpcOverheadUs)));
}

CostModelParams
Planner::costParams() const
{
    CostModelParams p;
    p.gathersPerQuery =
        static_cast<double>(config_.gathersPerQueryPerTable());
    p.rowBytes = Bytes{config_.embeddingDim} * sizeof(float);
    p.minMemAlloc = options_.minMemAlloc;
    return p;
}

SimTime
Planner::denseStageLatency(std::uint32_t cores) const
{
    const std::uint64_t flops = config_.denseFlopsPerQuery();
    if (lat_.node().hasGpu) {
        // Inputs (dense features), pooled embeddings (produced on the
        // CPU side) and outputs cross PCIe each query.
        const Bytes io =
            Bytes{4} * config_.batchSize *
                (config_.bottomMlp.inputDim() +
                 config_.embeddingDim * config_.numTables + 1);
        return lat_.denseGpuTime(flops, io);
    }
    return lat_.denseCpuTime(flops, cores);
}

SimTime
Planner::denseLatency() const
{
    return denseStageLatency(options_.denseCores);
}

double
Planner::denseQpsPerReplica() const
{
    return 1.0 / units::toSeconds(std::max<SimTime>(denseLatency(), 1));
}

SimTime
Planner::monolithicSparseLatency() const
{
    const Bytes row_bytes = Bytes{config_.embeddingDim} * sizeof(float);
    const SimTime per_table = lat_.gatherCpuTime(
        config_.gathersPerQueryPerTable(), row_bytes,
        lat_.node().cpu.logicalCores);
    return per_table * config_.numTables;
}

ShardSpec
Planner::makeDenseSpec() const
{
    ShardSpec spec;
    spec.name = "dense";
    spec.kind = ShardKind::Dense;
    spec.memBytes = config_.denseParamBytes() + options_.minMemAlloc;
    spec.cpuCores = options_.denseCores;
    spec.usesGpu = lat_.node().hasGpu;
    spec.serviceLatency = denseLatency();
    spec.stageLatencies = {spec.serviceLatency};
    spec.qpsPerReplica = denseQpsPerReplica();
    return spec;
}

std::shared_ptr<const QpsModel>
Planner::sparseQpsModel() const
{
    return sparseQps_;
}

PartitionPlan
Planner::partitionTable(const embedding::AccessCdf &cdf) const
{
    auto cdf_ptr = std::make_shared<embedding::AccessCdf>(cdf);
    CostModel cost(cdf_ptr, sparseQps_, costParams());
    // Align the DP candidate grid with the CDF granules so boundary
    // interpolation error stays inside one granule.
    std::vector<std::uint64_t> candidates;
    const auto g = std::min(options_.granules, cdf.granules());
    for (std::uint32_t i = 1; i <= g; ++i) {
        const std::uint64_t row =
            cdf.rowsAtGranule(cdf.granules() * i / g);
        if (candidates.empty() || row > candidates.back())
            candidates.push_back(row);
    }
    DpPartitioner dp(
        cdf.numRows(),
        [&cost](std::uint64_t b, std::uint64_t e) {
            return cost.cost(b, e);
        },
        std::move(candidates), options_.maxShards);
    if (options_.forceShards > 0)
        return dp.planWithShards(options_.forceShards);
    return dp.findOptimalPlan();
}

DeploymentPlan
Planner::planElasticRec(
    const std::vector<std::shared_ptr<const embedding::AccessCdf>> &cdfs)
    const
{
    ERC_CHECK(cdfs.size() == 1 || cdfs.size() == config_.numTables,
              "pass one CDF or one per table");
    DeploymentPlan plan;
    plan.policy = "elasticrec";
    plan.config = config_;
    plan.shards.push_back(makeDenseSpec());

    const Bytes row_bytes = Bytes{config_.embeddingDim} * sizeof(float);
    const double n_t =
        static_cast<double>(config_.gathersPerQueryPerTable());

    // When two tables share the same CDF object their partition plans
    // are identical; cache by pointer.
    std::shared_ptr<const embedding::AccessCdf> cached_cdf;
    PartitionPlan cached_plan;

    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        auto cdf = cdfs.size() == 1 ? cdfs[0] : cdfs[t];
        ERC_CHECK(cdf != nullptr, "null CDF for table " << t);
        ERC_CHECK(cdf->numRows() == config_.rowsPerTable,
                  "CDF row count mismatch for table " << t);
        auto effective = cdf;
        if (!options_.sortTables) {
            // Figure 8(a) ablation: partition the unsorted table, where
            // hot rows are dispersed uniformly, i.e. mass is linear in
            // the row count.
            const std::uint64_t rows = cdf->numRows();
            effective = std::make_shared<embedding::AccessCdf>(
                embedding::AccessCdf::fromMassFunction(
                    rows,
                    [rows](std::uint64_t x) {
                        return static_cast<double>(x) /
                               static_cast<double>(rows);
                    },
                    cdf->granules()));
        }
        if (effective != cached_cdf) {
            cached_plan = partitionTable(*effective);
            cached_cdf = effective;
        }
        const PartitionPlan &pp = cached_plan;

        std::uint64_t begin = 0;
        for (std::uint32_t s = 0; s < pp.numShards(); ++s) {
            const std::uint64_t end = pp.boundaries[s];
            ShardSpec spec;
            spec.name = "t" + std::to_string(t) + "-s" +
                        std::to_string(s);
            spec.kind = ShardKind::SparseEmbedding;
            spec.tableId = t;
            spec.shardId = s;
            spec.beginRow = begin;
            spec.endRow = end;
            spec.memBytes =
                (end - begin) * row_bytes + options_.minMemAlloc;
            spec.cpuCores = options_.sparseCores;
            spec.usesGpu = false;
            spec.expectedGathers =
                effective->massOfRange(begin, end) * n_t;
            spec.qpsPerReplica = sparseQps_->qps(spec.expectedGathers);
            spec.serviceLatency =
                sparseQps_->serviceTime(spec.expectedGathers);
            spec.stageLatencies = {spec.serviceLatency};
            plan.shards.push_back(std::move(spec));
            begin = end;
        }
    }
    return plan;
}

DeploymentPlan
Planner::planModelWise() const
{
    DeploymentPlan plan;
    plan.policy = "model-wise";
    plan.config = config_;

    const std::uint32_t cores = lat_.node().cpu.logicalCores;
    const SimTime dense_t = denseStageLatency(cores);
    const SimTime sparse_t = monolithicSparseLatency();

    ShardSpec spec;
    spec.name = "model-wise";
    spec.kind = ShardKind::Monolithic;
    spec.memBytes = config_.totalParamBytes() + options_.minMemAlloc;
    spec.cpuCores = cores;
    spec.usesGpu = lat_.node().hasGpu;
    // Dense and sparse stages pipeline across queries inside the
    // container: throughput is set by the slower stage, latency is the
    // sum (Figure 4's premise).
    spec.serviceLatency = dense_t + sparse_t;
    spec.stageLatencies = {dense_t, sparse_t};
    spec.qpsPerReplica =
        1.0 /
        units::toSeconds(std::max<SimTime>(std::max(dense_t, sparse_t),
                                           1));
    spec.expectedGathers = static_cast<double>(
        config_.gathersPerQueryPerTable() * config_.numTables);
    plan.shards.push_back(std::move(spec));
    return plan;
}

DeploymentPlan
Planner::planColumnWise(std::uint32_t columns) const
{
    ERC_CHECK(columns >= 1 && columns <= config_.embeddingDim,
              "column count must be in [1, embedding dim]");
    ERC_CHECK(config_.embeddingDim % columns == 0,
              "embedding dim must divide evenly into column shards");
    DeploymentPlan plan;
    plan.policy = "column-wise";
    plan.config = config_;
    plan.shards.push_back(makeDenseSpec());

    const std::uint32_t cols_per_shard = config_.embeddingDim / columns;
    const Bytes shard_row_bytes = Bytes{cols_per_shard} * sizeof(float);
    const double n_t =
        static_cast<double>(config_.gathersPerQueryPerTable());

    // Column shards answer every gather of every query, moving a
    // 1/columns slice of each row; profile a QPS model for the
    // narrower rows.
    const auto col_qps = QpsModel::profile(
        lat_, shard_row_bytes, options_.sparseCores,
        std::max<std::uint64_t>(65536,
                                4 * config_.gathersPerQueryPerTable()),
        static_cast<SimTime>(lat_.node().cpu.sparseRpcOverheadUs));

    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        for (std::uint32_t c = 0; c < columns; ++c) {
            ShardSpec spec;
            spec.name = "t" + std::to_string(t) + "-c" +
                        std::to_string(c);
            spec.kind = ShardKind::SparseEmbedding;
            spec.tableId = t;
            spec.shardId = c;
            spec.beginRow = 0;
            spec.endRow = config_.rowsPerTable;
            spec.memBytes = config_.rowsPerTable * shard_row_bytes +
                            options_.minMemAlloc;
            spec.cpuCores = options_.sparseCores;
            spec.expectedGathers = n_t;
            spec.qpsPerReplica = col_qps.qps(n_t);
            spec.serviceLatency = col_qps.serviceTime(n_t);
            spec.stageLatencies = {spec.serviceLatency};
            plan.shards.push_back(std::move(spec));
        }
    }
    return plan;
}

DeploymentPlan
Planner::planElasticRecHotCache(
    const std::vector<std::shared_ptr<const embedding::AccessCdf>> &cdfs,
    std::uint64_t hot_rows_per_table) const
{
    ERC_CHECK(lat_.node().hasGpu,
              "the hot-cache extension needs a GPU platform");
    ERC_CHECK(cdfs.size() == 1 || cdfs.size() == config_.numTables,
              "pass one CDF or one per table");
    ERC_CHECK(hot_rows_per_table > 0 &&
                  hot_rows_per_table < config_.rowsPerTable,
              "hot prefix must be a proper, non-empty table prefix");
    const Bytes row_bytes = Bytes{config_.embeddingDim} * sizeof(float);
    const Bytes hbm_use = hot_rows_per_table * row_bytes *
                          config_.numTables;
    ERC_CHECK(hbm_use <= lat_.node().gpu.hbmCapacity / 2,
              "hot prefixes ("
                  << units::formatBytes(hbm_use)
                  << ") exceed half the HBM capacity");

    DeploymentPlan plan;
    plan.policy = "elasticrec-hot-cache";
    plan.config = config_;

    const double n_t =
        static_cast<double>(config_.gathersPerQueryPerTable());

    // Dense shard: original dense stage plus the fused HBM lookups of
    // every table's hot prefix. HBM-resident rows also count toward
    // the container's memory footprint.
    ShardSpec dense = makeDenseSpec();
    SimTime cache_t = 0;
    double hot_mass_total = 0.0;
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        const auto &cdf = cdfs.size() == 1 ? cdfs[0] : cdfs[t];
        ERC_CHECK(cdf != nullptr, "null CDF for table " << t);
        const double hot_mass =
            cdf->massOfTopRows(hot_rows_per_table);
        hot_mass_total += hot_mass;
        const auto hot_gathers = static_cast<std::size_t>(
            hot_mass * n_t);
        cache_t += lat_.cachedGatherTime(
            std::max<std::size_t>(1, hot_gathers), 1.0, row_bytes,
            dense.cpuCores);
    }
    dense.serviceLatency += cache_t;
    dense.stageLatencies = {dense.serviceLatency};
    dense.qpsPerReplica =
        1.0 / units::toSeconds(std::max<SimTime>(dense.serviceLatency,
                                                 1));
    dense.memBytes += hbm_use;
    dense.expectedGathers =
        hot_mass_total / config_.numTables * n_t;
    plan.shards.push_back(std::move(dense));

    // Cold remainder: DP-partition rows [hot, N) of each table using
    // the cost of absolute row ranges shifted into the cold region.
    std::shared_ptr<const embedding::AccessCdf> cached_cdf;
    PartitionPlan cached_plan;
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        const auto &cdf = cdfs.size() == 1 ? cdfs[0] : cdfs[t];
        if (cdf != cached_cdf) {
            CostModel cost(cdf, sparseQps_, costParams());
            const std::uint64_t cold_rows =
                config_.rowsPerTable - hot_rows_per_table;
            DpPartitioner::Options dp_opt;
            dp_opt.maxShards = options_.maxShards;
            dp_opt.granules = options_.granules;
            DpPartitioner dp(
                cold_rows,
                [&cost, hot_rows_per_table](std::uint64_t b,
                                            std::uint64_t e) {
                    return cost.cost(hot_rows_per_table + b,
                                     hot_rows_per_table + e);
                },
                dp_opt);
            cached_plan = dp.findOptimalPlan();
            cached_cdf = cdf;
        }
        std::uint64_t begin = hot_rows_per_table;
        for (std::uint32_t s = 0; s < cached_plan.numShards(); ++s) {
            const std::uint64_t end =
                hot_rows_per_table + cached_plan.boundaries[s];
            ShardSpec spec;
            spec.name = "t" + std::to_string(t) + "-s" +
                        std::to_string(s);
            spec.kind = ShardKind::SparseEmbedding;
            spec.tableId = t;
            spec.shardId = s;
            spec.beginRow = begin;
            spec.endRow = end;
            spec.memBytes =
                (end - begin) * row_bytes + options_.minMemAlloc;
            spec.cpuCores = options_.sparseCores;
            spec.expectedGathers = cdf->massOfRange(begin, end) * n_t;
            spec.qpsPerReplica =
                sparseQps_->qps(spec.expectedGathers);
            spec.serviceLatency =
                sparseQps_->serviceTime(spec.expectedGathers);
            spec.stageLatencies = {spec.serviceLatency};
            plan.shards.push_back(std::move(spec));
            begin = end;
        }
    }
    return plan;
}

DeploymentPlan
Planner::planModelWiseGpuCache() const
{
    ERC_CHECK(lat_.node().hasGpu,
              "the GPU-cache baseline needs a GPU platform");
    DeploymentPlan plan;
    plan.policy = "model-wise-cache";
    plan.config = config_;

    const std::uint32_t cores = lat_.node().cpu.logicalCores;
    const Bytes row_bytes = Bytes{config_.embeddingDim} * sizeof(float);
    const auto n_t = config_.gathersPerQueryPerTable();

    const SimTime dense_t = denseStageLatency(cores);
    const SimTime sparse_t =
        lat_.cachedGatherTime(n_t, kGpuCacheHitRate, row_bytes, cores) *
        config_.numTables;

    ShardSpec spec;
    spec.name = "model-wise-cache";
    spec.kind = ShardKind::Monolithic;
    // CPU memory still holds every table (the cache is HBM-resident).
    spec.memBytes = config_.totalParamBytes() + options_.minMemAlloc;
    spec.cpuCores = cores;
    spec.usesGpu = true;
    spec.serviceLatency = dense_t + sparse_t;
    spec.stageLatencies = {dense_t, sparse_t};
    spec.qpsPerReplica =
        1.0 /
        units::toSeconds(std::max<SimTime>(std::max(dense_t, sparse_t),
                                           1));
    spec.expectedGathers =
        static_cast<double>(n_t * config_.numTables);
    plan.shards.push_back(std::move(spec));
    return plan;
}

} // namespace erec::core
