#include "elasticrec/sim/experiment.h"

#include "elasticrec/cluster/scheduler.h"
#include "elasticrec/common/error.h"
#include "elasticrec/core/utility_tracker.h"
#include "elasticrec/workload/query_generator.h"

namespace erec::sim {

workload::AccessDistributionPtr
distributionFor(const model::DlrmConfig &config)
{
    return std::make_shared<workload::LocalityDistribution>(
        config.rowsPerTable, config.localityP);
}

std::shared_ptr<const embedding::AccessCdf>
cdfFor(const model::DlrmConfig &config, std::uint32_t granules)
{
    auto dist = distributionFor(config);
    return std::make_shared<embedding::AccessCdf>(
        embedding::AccessCdf::fromMassFunction(
            dist->numRows(),
            [&dist](std::uint64_t x) { return dist->massOfTopRows(x); },
            granules));
}

StaticDeployment
evaluateStatic(const core::DeploymentPlan &plan, const hw::NodeSpec &node,
               double target_qps)
{
    const double sized_qps = target_qps / kSizingUtilization;
    StaticDeployment out;
    out.policy = plan.policy;
    out.targetQps = target_qps;
    std::vector<cluster::PodGroup> groups;
    for (const auto &spec : plan.shards) {
        const auto replicas =
            core::DeploymentPlan::replicasForTarget(spec, sized_qps);
        out.replicas[spec.name] = replicas;
        out.totalReplicas += replicas;
        out.memory += Bytes{replicas} * spec.memBytes;
        groups.push_back({&spec, replicas});
    }
    out.nodes = cluster::Scheduler(node).countNodes(std::move(groups));
    return out;
}

SteadyStateResult
runSteadyState(const core::DeploymentPlan &plan, const hw::NodeSpec &node,
               double target_qps, const ExperimentOptions &options)
{
    SteadyStateResult result;
    result.staticView = evaluateStatic(plan, node, target_qps);

    SimOptions sim_options = options.sim;
    sim_options.autoscale = false;
    ClusterSimulation sim(plan, node,
                          workload::TrafficPattern::constant(target_qps),
                          sim_options);
    for (const auto &[name, replicas] : result.staticView.replicas)
        sim.setFixedReplicas(name, replicas);
    const SimResult r = sim.run(options.duration);

    result.achievedQps = static_cast<double>(r.completed) /
                         units::toSeconds(options.duration);
    result.meanLatencyMs = r.meanLatencyMs;
    result.p95LatencyMs = r.p95LatencyOverallMs;
    result.slaViolationFraction =
        r.completed == 0
            ? 0.0
            : static_cast<double>(r.slaViolations) /
                  static_cast<double>(r.completed);
    return result;
}

UtilityReport
measureUtility(const model::DlrmConfig &config,
               const std::vector<std::uint64_t> &boundaries,
               const std::vector<const core::ShardSpec *> &shard_specs,
               double target_qps, const ExperimentOptions &options)
{
    ERC_CHECK(!boundaries.empty(), "need at least one shard boundary");
    ERC_CHECK(boundaries.back() == config.rowsPerTable,
              "boundaries must cover the whole table");

    auto dist = distributionFor(config);
    core::UtilityTracker tracker(boundaries);

    // Stream queries for one table: batchSize items x poolingFactor
    // gathers, sampled in hotness-rank space.
    constexpr std::uint64_t kQuerySeed = 99;
    Rng rng(kQuerySeed);
    const std::uint64_t gathers_per_query =
        config.gathersPerQueryPerTable();
    for (std::uint32_t q = 0; q < options.numQueries; ++q) {
        for (std::uint64_t g = 0; g < gathers_per_query; ++g)
            tracker.recordRank(dist->sampleRank(rng));
    }

    UtilityReport report;
    report.overallUtility = tracker.overallUtility();
    for (std::uint32_t s = 0; s < tracker.numShards(); ++s)
        report.shardUtility.push_back(tracker.shardUtility(s));
    for (const auto *spec : shard_specs) {
        ERC_CHECK(spec != nullptr, "null shard spec");
        report.shardReplicas.push_back(
            core::DeploymentPlan::replicasForTarget(*spec, target_qps));
    }
    return report;
}

} // namespace erec::sim
