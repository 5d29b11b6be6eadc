#pragma once

/**
 * @file
 * Experiment harness helpers shared by the benchmark binaries: access
 * CDF construction for a workload config, static deployment math
 * (memory, replicas, node packing), steady-state simulation runs, and
 * the Figure 14/17 memory-utility measurement.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "elasticrec/core/planner.h"
#include "elasticrec/embedding/access_cdf.h"
#include "elasticrec/sim/cluster_sim.h"
#include "elasticrec/workload/access_distribution.h"

namespace erec::sim {

/**
 * Build the access distribution the paper's locality model prescribes
 * for a workload config (P over the top 10% of rows).
 */
workload::AccessDistributionPtr
distributionFor(const model::DlrmConfig &config);

/**
 * Build the (analytic) access CDF for a workload config at the given
 * granularity — the input to the partitioning planner.
 */
std::shared_ptr<const embedding::AccessCdf>
cdfFor(const model::DlrmConfig &config, std::uint32_t granules = 1024);

/**
 * Peak per-replica utilization static deployments are sized for:
 * replicas are provisioned at target/kSizingUtilization. Mirrors the
 * HPA's 65-70% scaling targets (Section IV-D) so tail latency stays
 * inside the SLA.
 */
inline constexpr double kSizingUtilization = 0.85;

/**
 * Shared knobs of the experiment helpers below. One options struct
 * instead of trailing positional defaults, so call sites name what
 * they override (designated initializers) and new knobs do not churn
 * every caller.
 */
struct ExperimentOptions
{
    /** Simulated duration of steady-state runs. */
    SimTime duration = 120 * units::kSecond;
    /** Queries streamed by measureUtility (the paper measures 1,000). */
    std::uint32_t numQueries = 1000;
    /**
     * Simulation options for runSteadyState. The harness forces
     * autoscale off (steady state is fixed-replica).
     */
    SimOptions sim = {};
};

/** Static deployment summary at a fleet target QPS. */
struct StaticDeployment
{
    std::string policy;
    double targetQps = 0.0;
    Bytes memory = 0;
    std::uint32_t totalReplicas = 0;
    std::uint32_t nodes = 0;
    std::map<std::string, std::uint32_t> replicas;
};

/**
 * Evaluate a plan statically: replica counts from the planner's
 * per-shard QPS estimates at target_qps / kSizingUtilization, total
 * memory, and bin-packed node count.
 */
StaticDeployment evaluateStatic(const core::DeploymentPlan &plan,
                                const hw::NodeSpec &node,
                                double target_qps);

/** Result of a steady-state (fixed-replica) simulation run. */
struct SteadyStateResult
{
    StaticDeployment staticView;
    double achievedQps = 0.0;
    double meanLatencyMs = 0.0;
    double p95LatencyMs = 0.0;
    double slaViolationFraction = 0.0;
};

/**
 * Run a fixed-replica steady-state simulation of a plan at the target
 * QPS and report achieved throughput and latency alongside the static
 * deployment view. Uses options.duration and options.sim.
 */
SteadyStateResult runSteadyState(const core::DeploymentPlan &plan,
                                 const hw::NodeSpec &node,
                                 double target_qps,
                                 const ExperimentOptions &options = {});

/** Per-shard utility measurement (Figures 14 and 17). */
struct UtilityReport
{
    /** Utility (touched fraction) per shard, hottest first. */
    std::vector<double> shardUtility;
    /** Replicas the plan deploys per shard at the target QPS. */
    std::vector<std::uint32_t> shardReplicas;
    /** Whole-table utility. */
    double overallUtility = 0.0;
};

/**
 * Measure the memory utility of one table's shards by streaming
 * options.numQueries generated queries (the paper measures the first
 * 1,000; the stream's seed is fixed) through the access distribution
 * and recording which rows are touched.
 *
 * @param config Workload config (row count, pooling factor, locality).
 * @param boundaries Table partitioning points (pass {rowsPerTable} for
 *        the model-wise monolithic layout).
 * @param shard_specs Shard specs of this table (for replica counts);
 *        may be empty when only utility is needed.
 * @param target_qps Fleet target used for the replica counts.
 */
UtilityReport measureUtility(
    const model::DlrmConfig &config,
    const std::vector<std::uint64_t> &boundaries,
    const std::vector<const core::ShardSpec *> &shard_specs,
    double target_qps, const ExperimentOptions &options = {});

} // namespace erec::sim
