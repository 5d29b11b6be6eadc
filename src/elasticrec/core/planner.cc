#include "elasticrec/core/planner.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "elasticrec/common/error.h"

namespace erec::core {

namespace {

Bytes
rowBytes(const model::DlrmConfig &config)
{
    return Bytes{config.embeddingDim} * sizeof(float);
}

} // namespace

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

SimTime
ShardSpec::serviceLatency() const
{
    return std::accumulate(stageLatencies.begin(), stageLatencies.end(),
                           SimTime{0});
}

std::uint32_t
DeploymentPlan::replicasForTarget(const ShardSpec &spec, double target_qps)
{
    ERC_CHECK(spec.qpsPerReplica > 0, "shard has no throughput estimate");
    return static_cast<std::uint32_t>(
        replicasFor(target_qps, spec.qpsPerReplica));
}

Bytes
DeploymentPlan::memoryForTarget(double target_qps) const
{
    Bytes total = 0;
    for (const auto &s : shards)
        total += Bytes{replicasForTarget(s, target_qps)} * s.memBytes;
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
    sparseQps_ =
        std::make_shared<QpsModel>(profileSparseQps(rowBytes(config_)));
}

QpsModel
Planner::profileSparseQps(Bytes row_bytes) const
{
    return QpsModel::profile(
        lat_, row_bytes, options_.sparseCores,
        std::max<std::uint64_t>(65536,
                                4 * config_.gathersPerQueryPerTable()),
        static_cast<SimTime>(lat_.node().cpu.sparseRpcOverheadUs));
}

CostModel
Planner::costModel(std::shared_ptr<const embedding::AccessCdf> cdf,
                   double target_qps) const
{
    return CostModel(
        std::move(cdf), sparseQps_,
        {.targetTraffic = target_qps,
         .gathersPerQuery =
             static_cast<double>(config_.gathersPerQueryPerTable()),
         .rowBytes = rowBytes(config_),
         .minMemAlloc = options_.minMemAlloc});
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

ShardSpec
Planner::makeDenseSpec(SimTime hbm_lookups) const
{
    ShardSpec spec;
    spec.name = "dense";
    spec.kind = ShardKind::Dense;
    spec.memBytes = config_.denseParamBytes() + options_.minMemAlloc;
    spec.cpuCores = options_.denseCores;
    spec.usesGpu = lat_.node().hasGpu;
    spec.stageLatencies = {denseStageLatency(options_.denseCores) +
                           hbm_lookups};
    spec.qpsPerReplica = qpsForStageTime(spec.stageLatencies[0]);
    return spec;
}

ShardSpec
Planner::sparseSpec(std::string name, std::uint32_t table,
                    std::uint32_t shard, std::uint64_t begin,
                    std::uint64_t end, Bytes mem_bytes, double gathers,
                    double qps) const
{
    ShardSpec spec;
    spec.name = std::move(name);
    spec.kind = ShardKind::SparseEmbedding;
    spec.tableId = table;
    spec.shardId = shard;
    spec.beginRow = begin;
    spec.endRow = end;
    spec.memBytes = mem_bytes;
    spec.cpuCores = options_.sparseCores;
    spec.expectedGathers = gathers;
    spec.qpsPerReplica = qps;
    spec.stageLatencies = {stageTimeForQps(qps)};
    return spec;
}

ShardSpec
Planner::monolithicSpec(std::string name, SimTime dense_t,
                        SimTime sparse_t) const
{
    ShardSpec spec;
    spec.name = std::move(name);
    spec.kind = ShardKind::Monolithic;
    // CPU memory holds every table (a GPU cache is HBM-resident).
    spec.memBytes = config_.totalParamBytes() + options_.minMemAlloc;
    spec.cpuCores = lat_.node().cpu.logicalCores;
    spec.usesGpu = lat_.node().hasGpu;
    // Dense and sparse stages pipeline across queries inside the
    // container: throughput is set by the slower stage, latency is the
    // sum (Figure 4's premise).
    spec.stageLatencies = {dense_t, sparse_t};
    spec.qpsPerReplica = qpsForStageTime(std::max(dense_t, sparse_t));
    spec.expectedGathers = static_cast<double>(
        config_.gathersPerQueryPerTable() * config_.numTables);
    return spec;
}

PartitionPlan
Planner::partitionTable(const embedding::AccessCdf &cdf) const
{
    return partition(costModel(std::make_shared<embedding::AccessCdf>(cdf)),
                     cdf);
}

PartitionPlan
Planner::partition(const CostModel &cost,
                   const embedding::AccessCdf &cdf) const
{
    // Align the DP candidate grid with the CDF granules so boundary
    // interpolation error stays inside one granule.
    const DpPartitioner::Options search;
    std::vector<std::uint64_t> candidates;
    const auto g = std::min(search.granules, cdf.granules());
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
        std::move(candidates), search.maxShards);
    if (options_.forceShards > 0)
        return dp.planWithShards(options_.forceShards);
    return dp.findOptimalPlan();
}

void
Planner::appendTableShards(DeploymentPlan &plan, const CdfList &cdfs,
                           std::uint64_t first_row,
                           const PartitionFn &partition) const
{
    // Tables that share one CDF object share one partition plan.
    std::shared_ptr<const embedding::AccessCdf> cached_cdf;
    std::optional<CostModel> cost;
    PartitionPlan pp;
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        const auto &cdf = cdfs.size() == 1 ? cdfs[0] : cdfs[t];
        if (cdf != cached_cdf) {
            cost.emplace(costModel(cdf));
            pp = partition(*cost, *cdf);
            cached_cdf = cdf;
        }
        std::uint64_t begin = first_row;
        for (std::uint32_t s = 0; s < pp.numShards(); ++s) {
            const std::uint64_t end = first_row + pp.boundaries[s];
            plan.shards.push_back(sparseSpec(
                "t" + std::to_string(t) + "-s" + std::to_string(s), t, s,
                begin, end, cost->replicaBytes(begin, end),
                cost->shardGathers(begin, end),
                cost->shardQps(begin, end)));
            begin = end;
        }
    }
}

DeploymentPlan
Planner::planElasticRec(
    const std::vector<std::shared_ptr<const embedding::AccessCdf>> &cdfs)
    const
{
    ERC_CHECK(cdfs.size() == 1 || cdfs.size() == config_.numTables,
              "pass one CDF or one per table");
    CdfList effective = cdfs;
    for (std::size_t t = 0; t < cdfs.size(); ++t) {
        ERC_CHECK(cdfs[t] != nullptr, "null CDF for table " << t);
        const std::uint64_t rows = cdfs[t]->numRows();
        ERC_CHECK(rows == config_.rowsPerTable,
                  "CDF row count mismatch for table " << t);
        if (!options_.sortTables) {
            // Figure 8(a) ablation: partition the unsorted table, where
            // hot rows are dispersed uniformly, i.e. mass is linear in
            // the row count.
            effective[t] = std::make_shared<embedding::AccessCdf>(
                embedding::AccessCdf::fromMassFunction(
                    rows,
                    [rows](std::uint64_t x) {
                        return static_cast<double>(x) /
                               static_cast<double>(rows);
                    },
                    cdfs[t]->granules()));
        }
    }
    DeploymentPlan plan{"elasticrec", config_, {makeDenseSpec(0)}};
    appendTableShards(plan, effective, 0,
                      [this](const CostModel &cost,
                             const embedding::AccessCdf &cdf) {
                          return partition(cost, cdf);
                      });
    return plan;
}

DeploymentPlan
Planner::planModelWise() const
{
    const std::uint32_t cores = lat_.node().cpu.logicalCores;
    const SimTime sparse_t =
        lat_.gatherCpuTime(config_.gathersPerQueryPerTable(),
                           rowBytes(config_), cores) *
        config_.numTables;
    return {"model-wise",
            config_,
            {monolithicSpec("model-wise", denseStageLatency(cores),
                            sparse_t)}};
}

DeploymentPlan
Planner::planColumnWise(std::uint32_t columns) const
{
    ERC_CHECK(columns >= 1 && columns <= config_.embeddingDim,
              "column count must be in [1, embedding dim]");
    ERC_CHECK(config_.embeddingDim % columns == 0,
              "embedding dim must divide evenly into column shards");
    DeploymentPlan plan{"column-wise", config_, {makeDenseSpec(0)}};

    // Column shards answer every gather of every query (n_s = n_t),
    // moving a 1/columns slice of each row; profile a QPS model for
    // the narrower rows.
    const Bytes shard_row_bytes = rowBytes(config_) / columns;
    const double n_t =
        static_cast<double>(config_.gathersPerQueryPerTable());
    const double qps = profileSparseQps(shard_row_bytes).qps(n_t);
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        for (std::uint32_t c = 0; c < columns; ++c) {
            plan.shards.push_back(sparseSpec(
                "t" + std::to_string(t) + "-c" + std::to_string(c), t, c,
                0, config_.rowsPerTable,
                config_.rowsPerTable * shard_row_bytes +
                    options_.minMemAlloc,
                n_t, qps));
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
    const Bytes row_bytes = rowBytes(config_);
    const Bytes hbm_use = hot_rows_per_table * row_bytes *
                          config_.numTables;
    ERC_CHECK(hbm_use <= lat_.node().gpu.hbmCapacity / 2,
              "hot prefixes ("
                  << units::formatBytes(hbm_use)
                  << ") exceed half the HBM capacity");

    const double n_t =
        static_cast<double>(config_.gathersPerQueryPerTable());

    // Dense shard: original dense stage plus the fused HBM lookups of
    // every table's hot prefix. HBM-resident rows also count toward
    // the container's memory footprint.
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
            options_.denseCores);
    }
    ShardSpec dense = makeDenseSpec(cache_t);
    dense.memBytes += hbm_use;
    dense.expectedGathers =
        hot_mass_total / config_.numTables * n_t;
    DeploymentPlan plan{"elasticrec-hot-cache", config_,
                        {std::move(dense)}};

    // Cold remainder: DP-partition rows [hot, N) of each table on a
    // uniform grid, pricing absolute row ranges shifted into the cold
    // region.
    const std::uint64_t cold_rows =
        config_.rowsPerTable - hot_rows_per_table;
    appendTableShards(
        plan, cdfs, hot_rows_per_table,
        [cold_rows, hot_rows_per_table](const CostModel &cost,
                                        const embedding::AccessCdf &) {
            return DpPartitioner(
                       cold_rows,
                       [&cost, hot_rows_per_table](std::uint64_t b,
                                                   std::uint64_t e) {
                           return cost.cost(hot_rows_per_table + b,
                                            hot_rows_per_table + e);
                       })
                .findOptimalPlan();
        });
    return plan;
}

DeploymentPlan
Planner::planModelWiseGpuCache() const
{
    ERC_CHECK(lat_.node().hasGpu,
              "the GPU-cache baseline needs a GPU platform");
    const std::uint32_t cores = lat_.node().cpu.logicalCores;
    const SimTime sparse_t =
        lat_.cachedGatherTime(config_.gathersPerQueryPerTable(),
                              kGpuCacheHitRate, rowBytes(config_),
                              cores) *
        config_.numTables;
    return {"model-wise-cache",
            config_,
            {monolithicSpec("model-wise-cache", denseStageLatency(cores),
                            sparse_t)}};
}

} // namespace erec::core
