/**
 * @file
 * End-to-end telemetry tests: an autoscaled cluster simulation with 1%
 * query tracing must emit a Prometheus export and a JSON-lines trace
 * file that parse cleanly (via the promcheck parser) and cross-check
 * against the run's SimResult — completions, SLA violations and scale
 * events all match — while tracing itself never perturbs the
 * simulation or its determinism, and a traced simulation re-entered
 * through run() keeps one consistent span record.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "elasticrec/core/planner.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/obs/perfetto.h"
#include "elasticrec/obs/span_tree.h"
#include "elasticrec/obs/trace_schema.h"
#include "elasticrec/sim/cluster_sim.h"
#include "elasticrec/sim/experiment.h"
#include "tools/promcheck/prom_parser.h"

namespace erec::sim {
namespace {

core::DeploymentPlan
erPlan(const model::DlrmConfig &config, const hw::NodeSpec &node)
{
    core::Planner planner = core::Planner::forPlatform(config, node);
    return planner.planElasticRec({cdfFor(config, 256)});
}

/** A traffic step that forces the HPA to scale up mid-run. */
workload::TrafficPattern
stepTraffic()
{
    return workload::TrafficPattern(
        {{0, 20.0}, {2 * units::kMinute, 60.0}});
}

SimOptions
tracedOptions()
{
    SimOptions opt;
    opt.seed = 7;
    opt.traceSampleEvery = 100; // 1% of queries
    return opt;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

TEST(SimObsTest, ExportedTelemetryCrossChecksSimResult)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = erPlan(config, node);
    ClusterSimulation sim(plan, node, stepTraffic(), tracedOptions());
    const auto r = sim.run(6 * units::kMinute);
    ASSERT_GT(r.completed, 0u);
    EXPECT_GT(r.scaleEvents, 0u) << "traffic step must trigger the HPA";

    const auto dir = std::filesystem::temp_directory_path() /
                     "erec_sim_obs_test";
    std::filesystem::remove_all(dir);
    obs::writeMetricsFiles(dir.string(), "run", sim.observability(),
                           {.traces = &sim.traces(),
                            .alerts = &sim.alertEvents()});

    // The Prometheus export parses and passes histogram invariants.
    const auto prom =
        tools::parsePrometheusText(readFile(dir / "run.prom"));
    for (const auto &e : prom.errors)
        ADD_FAILURE() << e;
    ASSERT_TRUE(prom.ok);

    // Counters match the run's own accounting exactly.
    const std::string frontend = plan.frontendShard().name;
    EXPECT_EQ(prom.value("erec_arrivals_total"),
              static_cast<double>(r.arrivals));
    EXPECT_EQ(prom.value("erec_completions_total",
                         {{"deployment", frontend}}),
              static_cast<double>(r.completed));
    EXPECT_EQ(prom.value("erec_sla_violations_total",
                         {{"deployment", frontend}}),
              static_cast<double>(r.slaViolations));

    // Scale events: per-deployment up+down counters sum to the
    // SimResult's totals.
    double exported_events = 0;
    for (const auto &s : prom.samples)
        if (s.name == "erec_hpa_scale_events_total")
            exported_events += s.value;
    EXPECT_EQ(exported_events, static_cast<double>(r.scaleEvents));
    for (const auto &[dep, events] : r.scaleEventsByDeployment) {
        const double up = prom.value("erec_hpa_scale_events_total",
                                     {{"deployment", dep},
                                      {"direction", "up"}});
        const double down = prom.value("erec_hpa_scale_events_total",
                                       {{"deployment", dep},
                                        {"direction", "down"}});
        EXPECT_EQ(up + down, static_cast<double>(events)) << dep;
    }

    // The latency histogram saw every completion.
    EXPECT_EQ(prom.value("erec_latency_ms_count",
                         {{"deployment", frontend}}),
              static_cast<double>(r.completed));

    // The trace file re-reads and matches the in-memory spans, and the
    // Perfetto view of them is written alongside.
    const auto events =
        obs::readTraceJsonLines(readFile(dir / "run_traces.jsonl"));
    EXPECT_EQ(events.size(), sim.traces().size());
    EXPECT_EQ(obs::validateTraceSchema(events),
              std::vector<std::string>{});
    EXPECT_EQ(obs::validatePerfettoJson(
                  readFile(dir / "run_perfetto.json")),
              std::vector<std::string>{});
    std::filesystem::remove_all(dir);
}

TEST(SimObsTest, TracesObeySpanInvariants)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    ClusterSimulation sim(erPlan(config, node), node, stepTraffic(),
                          tracedOptions());
    const auto r = sim.run(5 * units::kMinute);

    // 1% sampling: at most one trace per 100 arrivals, first arrival
    // included, and every trace id is the sampled arrival's index + 1.
    ASSERT_GT(r.arrivals, 100u);
    const auto trees = obs::buildSpanTrees(sim.traces());
    EXPECT_LE(trees.size(), (r.arrivals - 1) / 100 + 1);
    for (const auto &tree : trees)
        EXPECT_EQ((tree.traceId - 1) % 100, 0u) << tree.traceId;

    std::size_t completed_traces = 0;
    for (const auto &tree : trees) {
        if (!tree.complete())
            continue;
        ++completed_traces;
        const obs::SpanEvent &root = tree.nodes[tree.root].event;
        EXPECT_GE(root.endUs, root.startUs);
        EXPECT_GT(tree.nodes.size(), 1u);
        for (const auto &node : tree.nodes) {
            const obs::SpanEvent &span = node.event;
            const std::string &name = obs::spanName(span.name);
            EXPECT_LE(span.startUs, span.endUs) << name;
            EXPECT_GE(span.startUs, root.startUs) << name;
            EXPECT_LE(span.endUs, root.endUs) << name;
        }
    }
    EXPECT_GT(completed_traces, 0u);
    EXPECT_EQ(obs::validateTraceSchema(sim.traces()),
              std::vector<std::string>{});
}

TEST(SimObsTest, TracedRunsAreByteIdenticalForSameSeed)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = erPlan(config, node);

    ClusterSimulation a(plan, node, stepTraffic(), tracedOptions());
    ClusterSimulation b(plan, node, stepTraffic(), tracedOptions());
    a.run(4 * units::kMinute);
    b.run(4 * units::kMinute);

    EXPECT_EQ(obs::toPrometheusText(a.observability()),
              obs::toPrometheusText(b.observability()));
    EXPECT_EQ(obs::toTraceJsonLines(a.traces()),
              obs::toTraceJsonLines(b.traces()));
}

/** Root spans per trace id in a span record. */
std::map<std::uint64_t, int>
rootSpansByTrace(const std::vector<obs::SpanEvent> &spans)
{
    std::map<std::uint64_t, int> roots;
    for (const auto &e : spans)
        if (e.spanId == obs::kRootSpanId)
            ++roots[e.traceId];
    return roots;
}

/** Run `sim` in four equal slices up to `end`; returns the summed
 *  arrivals and completions of the slices. */
std::pair<std::uint64_t, std::uint64_t>
runInSlices(ClusterSimulation &sim, SimTime end)
{
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    for (int k = 1; k <= 4; ++k) {
        const auto r = sim.run(end * k / 4);
        arrivals += r.arrivals;
        completed += r.completed;
    }
    return {arrivals, completed};
}

TEST(SimObsTest, ReenteredRunKeepsOneSpanRecord)
{
    // Every query traced, and queries in flight at each slice boundary
    // keep recording into the next slice: spans must survive the
    // re-entry, and no trace id may be reused.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    SimOptions opt;
    opt.seed = 3;
    opt.traceSampleEvery = 1;
    ClusterSimulation sim(erPlan(config, node), node,
                          workload::TrafficPattern::constant(200.0), opt);
    const auto [arrivals, completed] =
        runInSlices(sim, 20 * units::kSecond);
    ASSERT_GT(completed, 0u);

    std::uint64_t rooted = 0;
    for (const auto &tree : obs::buildSpanTrees(sim.traces()))
        rooted += tree.complete() ? 1 : 0;
    EXPECT_EQ(rooted, completed);
    EXPECT_EQ(obs::validateTraceSchema(sim.traces()),
              std::vector<std::string>{});
    for (const auto &[trace_id, roots] : rootSpansByTrace(sim.traces()))
        EXPECT_EQ(roots, 1) << "trace " << trace_id;
    EXPECT_LE(rooted, arrivals);
}

TEST(SimObsTest, DrainedSlicedRunTracesEveryQuery)
{
    // Traffic stops before the last slice ends, so every query has
    // completed by then: the span record then holds exactly one
    // complete trace per arrival.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    SimOptions opt;
    opt.seed = 3;
    opt.traceSampleEvery = 1;
    ClusterSimulation sim(
        erPlan(config, node), node,
        workload::TrafficPattern({{0, 200.0}, {14 * units::kSecond, 0.0}}),
        opt);
    const auto [arrivals, completed] =
        runInSlices(sim, 20 * units::kSecond);
    ASSERT_GT(arrivals, 0u);
    EXPECT_EQ(sim.lostQueries(), 0u);

    const auto trees = obs::buildSpanTrees(sim.traces());
    std::set<std::uint64_t> ids;
    std::uint64_t rooted = 0;
    for (const auto &tree : trees) {
        ids.insert(tree.traceId);
        rooted += tree.complete() ? 1 : 0;
    }
    EXPECT_EQ(ids.size(), arrivals);
    EXPECT_EQ(completed, arrivals);
    EXPECT_EQ(rooted, arrivals);
    // Trace ids are the arrival indices + 1, with none skipped.
    EXPECT_EQ(*ids.begin(), 1u);
    EXPECT_EQ(*ids.rbegin(), arrivals);
}

TEST(SimObsTest, TracingDoesNotPerturbTheSimulation)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = erPlan(config, node);

    SimOptions off;
    off.seed = 7;
    ClusterSimulation base(plan, node, stepTraffic(), off);
    const auto r_off = base.run(4 * units::kMinute);
    ClusterSimulation traced(plan, node, stepTraffic(),
                             tracedOptions());
    const auto r_on = traced.run(4 * units::kMinute);

    EXPECT_EQ(r_off.arrivals, r_on.arrivals);
    EXPECT_EQ(r_off.completed, r_on.completed);
    EXPECT_EQ(r_off.slaViolations, r_on.slaViolations);
    EXPECT_DOUBLE_EQ(r_off.meanLatencyMs, r_on.meanLatencyMs);
    EXPECT_EQ(r_off.peakMemory, r_on.peakMemory);
    EXPECT_EQ(r_off.scaleEvents, r_on.scaleEvents);
}

TEST(SimObsTest, PromcheckRejectsHeaderOnlyFamilies)
{
    const auto result = tools::parsePrometheusText(
        "# HELP erec_ghost A family with no samples.\n"
        "# TYPE erec_ghost gauge\n"
        "# TYPE erec_live counter\n"
        "erec_live 3\n");
    EXPECT_FALSE(result.ok);
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_NE(result.errors[0].find("erec_ghost"), std::string::npos);
    EXPECT_NE(result.errors[0].find("no samples"), std::string::npos);
}

TEST(SimObsTest, PodFailureFiresLostQueriesAlert)
{
    // The failure-ablation scenario in miniature: crash a frontend pod
    // mid-run and the default "lost-queries" rule must transition to
    // firing (and stay firing — lost_queries is cumulative), with the
    // transition visible both in the alert log and as exported
    // counters.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = erPlan(config, node);
    SimOptions opt;
    opt.seed = 11;
    ClusterSimulation sim(plan, node,
                          workload::TrafficPattern::constant(60.0),
                          opt);
    sim.injectPodFailure(plan.frontendShard().name, units::kMinute, 1);
    sim.run(3 * units::kMinute);
    ASSERT_GT(sim.lostQueries(), 0u)
        << "crash must lose in-flight queries";

    EXPECT_TRUE(sim.slo().firing("lost-queries"));
    std::uint64_t fired = 0, resolved = 0;
    SimTime first_firing = 0;
    for (const auto &e : sim.alertEvents()) {
        if (e.alert != "lost-queries")
            continue;
        if (e.firing) {
            ++fired;
            if (first_firing == 0)
                first_firing = e.time;
            EXPECT_GT(e.value, 0.0);
        } else {
            ++resolved;
        }
    }
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(resolved, 0u) << "cumulative losses never resolve";
    EXPECT_GE(first_firing, units::kMinute)
        << "alert cannot predate the crash";

    const auto &reg = sim.observability();
    EXPECT_EQ(reg.value("erec_alert_transitions_total",
                        {{"alert", "lost-queries"},
                         {"transition", "firing"}}),
              1.0);
    EXPECT_EQ(reg.value("erec_alert_firing",
                        {{"alert", "lost-queries"}}),
              1.0);
    EXPECT_EQ(reg.value("erec_lost_queries"),
              static_cast<double>(sim.lostQueries()));
}

TEST(SimObsTest, SteadyRunKeepsLostQueriesAlertQuiet)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    SimOptions opt;
    opt.seed = 7;
    ClusterSimulation sim(erPlan(config, node), node,
                          workload::TrafficPattern::constant(20.0),
                          opt);
    sim.run(2 * units::kMinute);
    EXPECT_TRUE(sim.traces().empty()) << "tracing off records nothing";
    EXPECT_EQ(sim.lostQueries(), 0u);
    EXPECT_FALSE(sim.slo().firing("lost-queries"));
    for (const auto &e : sim.alertEvents())
        EXPECT_NE(e.alert, "lost-queries");
}

TEST(SimObsTest, GaugeRuleReadsTheRegistryFamily)
{
    // gauge(<name>) reads the simulation's obs registry, summed over
    // the family's label sets: every deployment has a Ready pod, so
    // the rule fires.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    SimOptions opt;
    opt.seed = 7;
    ClusterSimulation sim(erPlan(config, node), node,
                          workload::TrafficPattern::constant(20.0),
                          opt);
    sim.slo().addRule("ready", "gauge(erec_ready_replicas) > 0");
    sim.run(units::kMinute);
    EXPECT_TRUE(sim.slo().firing("ready"));
    EXPECT_GT(sim.observability().sum("erec_ready_replicas"), 0.0);
}

TEST(SimObsTest, ExternalRegistryIsShared)
{
    // A caller-provided registry receives the simulation's metrics, so
    // several components can publish into one scrape surface.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = erPlan(config, node);
    auto registry = std::make_shared<obs::Registry>();
    SimOptions opt;
    opt.seed = 7;
    opt.observability = registry;
    ClusterSimulation sim(plan, node,
                          workload::TrafficPattern::constant(20.0),
                          opt);
    const auto r = sim.run(units::kMinute);
    EXPECT_EQ(registry.get(), &sim.observability());
    EXPECT_EQ(registry->value("erec_arrivals_total"),
              static_cast<double>(r.arrivals));
}

} // namespace
} // namespace erec::sim
