/**
 * @file
 * Integration tests for the cluster simulation: steady-state tracking,
 * autoscaling reaction to traffic changes, SLA behaviour, and the
 * relative ElasticRec-vs-baseline properties the paper's Figure 19
 * demonstrates.
 */

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/core/planner.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/sim/cluster_sim.h"
#include "elasticrec/sim/experiment.h"

namespace erec::sim {
namespace {

core::DeploymentPlan
erPlan(const model::DlrmConfig &config, const hw::NodeSpec &node)
{
    core::Planner planner = core::Planner::forPlatform(config, node);
    return planner.planElasticRec({cdfFor(config, 256)});
}

core::DeploymentPlan
mwPlan(const model::DlrmConfig &config, const hw::NodeSpec &node)
{
    core::Planner planner = core::Planner::forPlatform(config, node);
    return planner.planModelWise();
}

SimOptions
fastOptions()
{
    SimOptions opt;
    opt.seed = 7;
    return opt;
}

ExperimentOptions
steadyOptions(SimTime duration)
{
    ExperimentOptions opt;
    opt.duration = duration;
    opt.sim = fastOptions();
    return opt;
}

TEST(ClusterSimTest, SteadyStateTracksTarget)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto result = runSteadyState(erPlan(config, node), node, 50.0,
                                       steadyOptions(60 * units::kSecond));
    EXPECT_NEAR(result.achievedQps, 50.0, 5.0);
    EXPECT_LT(result.p95LatencyMs, 400.0);
    EXPECT_LT(result.slaViolationFraction, 0.05);
}

TEST(ClusterSimTest, ModelWiseSteadyStateAlsoTracks)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto result = runSteadyState(mwPlan(config, node), node, 50.0,
                                       steadyOptions(60 * units::kSecond));
    EXPECT_NEAR(result.achievedQps, 50.0, 5.0);
}

TEST(ClusterSimTest, ElasticRecUsesLessMemoryUnderSim)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto er = runSteadyState(erPlan(config, node), node, 100.0,
                                   steadyOptions(30 * units::kSecond));
    const auto mw = runSteadyState(mwPlan(config, node), node, 100.0,
                                   steadyOptions(30 * units::kSecond));
    EXPECT_LT(er.staticView.memory, mw.staticView.memory);
    EXPECT_LE(er.staticView.nodes, mw.staticView.nodes);
}

TEST(ClusterSimTest, AutoscaleFollowsTrafficStep)
{
    // Step from 20 to 60 QPS: the autoscaler must converge to the new
    // target within a few sync periods.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    workload::TrafficPattern traffic(
        {{0, 20.0}, {2 * units::kMinute, 60.0}});
    SimOptions opt = fastOptions();
    ClusterSimulation sim(erPlan(config, node), node, traffic, opt);
    const auto r = sim.run(8 * units::kMinute);

    // Average achieved rate over the last two minutes ~ 60 QPS.
    double tail_sum = 0;
    int tail_n = 0;
    for (const auto &[t, v] : r.achievedQps.points()) {
        if (t >= 6 * units::kMinute) {
            tail_sum += v;
            ++tail_n;
        }
    }
    ASSERT_GT(tail_n, 0);
    EXPECT_NEAR(tail_sum / tail_n, 60.0, 6.0);
    // Replica count must have grown.
    EXPECT_GT(r.readyReplicas.points().back().second,
              r.readyReplicas.points().front().second);
}

TEST(ClusterSimTest, ScaleInAfterTrafficDrop)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    workload::TrafficPattern traffic(
        {{0, 80.0}, {2 * units::kMinute, 10.0}});
    SimOptions opt = fastOptions();
    ClusterSimulation sim(erPlan(config, node), node, traffic, opt);
    const auto r = sim.run(12 * units::kMinute);
    const double start_mem = r.memoryGiB.points().front().second;
    const double end_mem = r.memoryGiB.points().back().second;
    EXPECT_LT(end_mem, start_mem);
}

TEST(ClusterSimTest, Figure19RelativeBehaviour)
{
    // Shortened Figure 19: ElasticRec must beat model-wise on peak
    // memory and SLA violations under the same dynamic traffic.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    // 10 QPS, rising in 3 equal steps to 60 QPS between minutes 2 and
    // 8, back to 10 QPS at minute 10.
    const double dq = 50.0 / 3.0;
    const workload::TrafficPattern traffic(
        {{0, 10.0},
         {2 * units::kMinute, 10.0 + dq},
         {4 * units::kMinute, 10.0 + dq * 2},
         {6 * units::kMinute, 10.0 + dq * 3},
         {10 * units::kMinute, 10.0}});
    SimOptions opt = fastOptions();

    ClusterSimulation er(erPlan(config, node), node, traffic, opt);
    const auto er_result = er.run(12 * units::kMinute);
    ClusterSimulation mw(mwPlan(config, node), node, traffic, opt);
    const auto mw_result = mw.run(12 * units::kMinute);

    EXPECT_LT(er_result.peakMemory, mw_result.peakMemory);
    EXPECT_LE(er_result.slaViolations, mw_result.slaViolations);
    EXPECT_EQ(er_result.completed, mw_result.completed);
}

TEST(ClusterSimTest, DeterministicForSeed)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto traffic = workload::TrafficPattern::constant(30.0);
    SimOptions opt = fastOptions();
    ClusterSimulation a(erPlan(config, node), node, traffic, opt);
    ClusterSimulation b(erPlan(config, node), node, traffic, opt);
    const auto ra = a.run(2 * units::kMinute);
    const auto rb = b.run(2 * units::kMinute);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_DOUBLE_EQ(ra.meanLatencyMs, rb.meanLatencyMs);
    EXPECT_EQ(ra.peakMemory, rb.peakMemory);
}

TEST(ClusterSimTest, FixedReplicasAreRespected)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    auto plan = mwPlan(config, node);
    SimOptions opt = fastOptions();
    opt.autoscale = false;
    ClusterSimulation sim(plan, node,
                          workload::TrafficPattern::constant(10.0),
                          opt);
    sim.setFixedReplicas(plan.shards[0].name, 3);
    const auto r = sim.run(units::kMinute);
    EXPECT_EQ(r.finalReplicas.at(plan.shards[0].name), 3u);
}

TEST(ClusterSimTest, FixedReplicasAreClamped)
{
    // A deployment's replica count is clamped to [1, 256].
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = mwPlan(config, node);
    const std::string &name = plan.shards[0].name;
    SimOptions opt = fastOptions();
    opt.autoscale = false;
    for (const auto &[asked, held] :
         {std::pair{0u, 1u}, std::pair{1000u, 256u}}) {
        ClusterSimulation sim(plan, node,
                              workload::TrafficPattern::constant(10.0),
                              opt);
        sim.setFixedReplicas(name, asked);
        const auto r = sim.run(units::kSecond);
        EXPECT_EQ(r.finalReplicas.at(name), held) << asked;
    }
}

TEST(ClusterSimTest, ColdStartDelaysTheReplacementPod)
{
    // A fixed two-pod fleet loses one pod between reconciles. The next
    // reconcile starts a replacement, which turns Ready only after the
    // container start plus loading its parameters.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = mwPlan(config, node);
    const core::ShardSpec &spec = plan.shards[0];
    SimOptions opt = fastOptions();
    opt.autoscale = false;
    ClusterSimulation sim(plan, node,
                          workload::TrafficPattern::constant(5.0), opt);
    sim.setFixedReplicas(spec.name, 2);
    const SimTime crash = 20 * units::kSecond + 500 * units::kMillisecond;
    sim.injectPodFailure(spec.name, crash);

    const SimTime reconcile = 2 * kHpaSyncPeriod; // first after the crash
    ASSERT_LT(reconcile - kHpaSyncPeriod, crash);
    ASSERT_GT(reconcile, crash);
    const SimTime ready_at =
        reconcile + kPodStartBase +
        units::fromSeconds(static_cast<double>(spec.memBytes) /
                           kModelLoadBandwidth);
    const auto r = sim.run(ready_at + 10 * units::kSecond);

    // The first once-a-second sample after the crash that sees two
    // Ready pods again is the first sample at or after ready_at.
    SimTime first_two = -1;
    for (const auto &[t, ready] : r.readyReplicas.points()) {
        if (t > crash && ready == 2.0) {
            first_two = t;
            break;
        }
    }
    EXPECT_GE(first_two, ready_at);
    EXPECT_LE(first_two, ready_at + kSampleInterval);
    EXPECT_EQ(sim.observability().value("erec_cold_starts_total",
                                        {{"deployment", spec.name}}),
              1.0);
}

TEST(ClusterSimTest, RecoversFromPodFailures)
{
    // Crash two dense pods mid-run: queued work is re-dispatched,
    // in-flight work is lost, and the reconciler restores capacity so
    // throughput recovers by the end of the run.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    SimOptions opt = fastOptions();
    ClusterSimulation sim(erPlan(config, node), node,
                          workload::TrafficPattern::constant(60.0),
                          opt);
    sim.injectPodFailure("dense", 2 * units::kMinute, 2);
    const auto r = sim.run(8 * units::kMinute);

    EXPECT_GT(sim.lostQueries(), 0u);
    EXPECT_GT(r.completed, 0u);
    // Tail throughput back at target after recovery.
    double tail_sum = 0;
    int tail_n = 0;
    for (const auto &[t, v] : r.achievedQps.points()) {
        if (t >= 6 * units::kMinute) {
            tail_sum += v;
            ++tail_n;
        }
    }
    ASSERT_GT(tail_n, 0);
    EXPECT_NEAR(tail_sum / tail_n, 60.0, 6.0);
}

TEST(ClusterSimTest, FailureLosesBoundedWork)
{
    // Only work resident in the crashed pod can be lost.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    SimOptions opt = fastOptions();
    opt.autoscale = false;
    auto plan = mwPlan(config, node);
    ClusterSimulation sim(plan, node,
                          workload::TrafficPattern::constant(40.0),
                          opt);
    sim.setFixedReplicas(plan.shards[0].name, 4);
    sim.injectPodFailure(plan.shards[0].name, units::kMinute, 1);
    const auto r = sim.run(4 * units::kMinute);
    EXPECT_GT(r.completed, 0u);
    // A single pod crash loses at most its in-service pipeline depth
    // (two stages) at the instant of the crash... plus nothing else.
    EXPECT_LE(sim.lostQueries(), 4u);
}

TEST(ClusterSimTest, QueryConservation)
{
    // Every arrival is either completed, lost to a crash, or still in
    // flight when the clock stops. With ample capacity and quiescent
    // tail time, arrivals == completions exactly.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    SimOptions opt = fastOptions();
    // Stop traffic early so in-flight work drains before the end.
    workload::TrafficPattern traffic(
        {{0, 50.0}, {3 * units::kMinute, 0.0}});
    ClusterSimulation sim(erPlan(config, node), node, traffic, opt);
    const auto r = sim.run(5 * units::kMinute);
    EXPECT_GT(r.arrivals, 0u);
    EXPECT_EQ(r.arrivals, r.completed + sim.lostQueries());
}

TEST(ClusterSimTest, QueryConservationWithFailures)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    SimOptions opt = fastOptions();
    workload::TrafficPattern traffic(
        {{0, 50.0}, {3 * units::kMinute, 0.0}});
    ClusterSimulation sim(erPlan(config, node), node, traffic, opt);
    sim.injectPodFailure("dense", units::kMinute, 1);
    sim.injectPodFailure("t0-s0", 90 * units::kSecond, 1);
    const auto r = sim.run(6 * units::kMinute);
    // Crashed sparse legs orphan their whole query: completed + lost
    // legs can undercount queries, so conservation holds as an
    // inequality with a small orphan remainder.
    EXPECT_LE(r.completed, r.arrivals);
    EXPECT_GE(r.completed + sim.lostQueries(), r.arrivals - 50);
}

TEST(ClusterSimTest, FailureOfUnknownDeploymentThrows)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    ClusterSimulation sim(mwPlan(config, node), node,
                          workload::TrafficPattern::constant(10.0),
                          fastOptions());
    EXPECT_THROW(sim.injectPodFailure("nope", units::kSecond),
                 InternalError);
}

} // namespace
} // namespace erec::sim
