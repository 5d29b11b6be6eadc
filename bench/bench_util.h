#pragma once

/**
 * @file
 * Shared helpers for the figure-reproduction benchmark binaries. Each
 * binary regenerates one table or figure of the paper: it builds the
 * relevant workload and deployment plans, runs the static evaluation
 * and/or the cluster simulation, and prints the same rows/series the
 * paper reports, plus the paper's reference numbers for comparison.
 */

#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/common/logging.h"
#include "elasticrec/common/table_printer.h"
#include "elasticrec/core/planner.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/model/dlrm_config.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/sim/experiment.h"

namespace erec::bench {

/** Print a figure banner. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "\n==================================================="
                 "=====================\n"
              << title << "\n"
              << "Paper reference: " << paper_ref << "\n"
              << "====================================================="
                 "===================\n";
}

/** Build the three deployment plans for one workload and platform. */
struct PlanSet
{
    core::DeploymentPlan elasticRec;
    core::DeploymentPlan modelWise;
};

inline PlanSet
makePlans(const model::DlrmConfig &config, const hw::NodeSpec &node,
          std::uint32_t cdf_granules = 1024)
{
    core::Planner planner = core::Planner::forPlatform(config, node);
    const auto cdf = sim::cdfFor(config, cdf_granules);
    return PlanSet{planner.planElasticRec({cdf}),
                   planner.planModelWise()};
}

/**
 * main() of the perf harnesses: parse the flags, then run. A bad flag
 * or flag value prints the error and a usage line on stderr and
 * returns 2; an error after parsing propagates to the caller.
 */
template <typename Options>
int
runHarness(int argc, char **argv, const char *usage,
           Options (*parse)(int, char **), int (*run)(const Options &))
{
    Options opts;
    std::string error;
    try {
        opts = parse(argc, argv);
    } catch (const ConfigError &e) {
        error = e.what();
    } catch (const std::logic_error &e) {
        // std::stoull's invalid_argument / out_of_range name only it.
        error = std::string("a flag value is not a number (") + e.what() +
                ")";
    }
    if (!error.empty()) {
        std::cerr << argv[0] << ": " << error << "\nusage: " << argv[0]
                  << " " << usage << "\n";
        return 2;
    }
    return run(opts);
}

/** Quiet logging for benches. */
inline void
quietLogs()
{
    setLogLevel(LogLevel::Warn);
}

/**
 * Parse the shared `--metrics-out DIR` flag (anywhere in argv); returns
 * an empty string when the flag is absent.
 */
inline std::string
metricsOutDir(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--metrics-out")
            return argv[i + 1];
    return {};
}

/**
 * Dump one simulation's telemetry as `<dir>/<stem>.prom` plus
 * `<stem>_traces.jsonl` and `<stem>_perfetto.json` (when tracing was
 * on; the latter loads directly into ui.perfetto.dev /
 * chrome://tracing) and `<stem>_alerts.jsonl` (the SLO alert log,
 * always written so "no transitions" is a recorded verdict rather
 * than a missing file). No-op when `dir` is empty, so binaries can
 * call it unconditionally.
 */
inline void
exportSimMetrics(const std::string &dir, const std::string &stem,
                 sim::ClusterSimulation &sim)
{
    if (dir.empty())
        return;
    const auto &traces = sim.traces();
    obs::ExportArtifacts artifacts;
    artifacts.traces = traces.empty() ? nullptr : &traces;
    artifacts.alerts = &sim.alertEvents();
    obs::writeMetricsFiles(dir, stem, sim.observability(), artifacts);
    std::cout << "telemetry: " << dir << "/" << stem << ".prom";
    if (!traces.empty())
        std::cout << " (+" << stem << "_traces.jsonl, +" << stem
                  << "_perfetto.json)";
    std::cout << " (+" << stem << "_alerts.jsonl)\n";
}

/** One line per SLO rule transition, for the bench stdout logs. */
inline void
printSloVerdicts(const std::string &label, sim::ClusterSimulation &sim)
{
    const auto &events = sim.alertEvents();
    std::cout << label << " SLO verdict: " << events.size()
              << " alert transition" << (events.size() == 1 ? "" : "s")
              << "\n";
    for (const auto &e : events)
        std::cout << "  [" << TablePrinter::num(units::toSeconds(e.time), 1)
                  << "s] " << e.alert << " "
                  << (e.firing ? "FIRING" : "resolved")
                  << " (value " << TablePrinter::num(e.value, 3) << ")\n";
}

/**
 * Figures 13/16: memory consumption of model-wise vs ElasticRec for
 * the three Table II workloads at a fleet target QPS.
 *
 * @param paper_reductions The paper's reported reduction factors for
 *        RM1/RM2/RM3 on this platform.
 */
inline void
memoryFigure(const hw::NodeSpec &node, double target_qps,
             const double (&paper_reductions)[3])
{
    TablePrinter t({"model", "model-wise", "ElasticRec", "measured",
                    "paper", "shards/table"});
    double geo = 1.0;
    int i = 0;
    for (const auto &config : model::tableIIModels()) {
        const auto plans = makePlans(config, node);
        const auto mw =
            sim::evaluateStatic(plans.modelWise, node, target_qps)
                .memory;
        const auto er =
            sim::evaluateStatic(plans.elasticRec, node, target_qps)
                .memory;
        const double ratio =
            static_cast<double>(mw) / static_cast<double>(er);
        geo *= ratio;
        t.addRow({config.name, units::formatBytes(mw),
                  units::formatBytes(er), TablePrinter::ratio(ratio),
                  TablePrinter::ratio(paper_reductions[i]),
                  TablePrinter::num(static_cast<std::int64_t>(
                      plans.elasticRec.tableShards(0).size()))});
        ++i;
    }
    t.print(std::cout);
    std::cout << "average (geomean) memory reduction: "
              << TablePrinter::ratio(std::pow(geo, 1.0 / 3.0)) << "\n";
}

/**
 * Figures 14/17: per-shard memory utility over the first 1,000 queries
 * and the replica count each shard needs at the fleet target, for the
 * first table of every Table II workload, compared with the model-wise
 * monolithic layout.
 */
inline void
utilityFigure(const hw::NodeSpec &node, double target_qps)
{
    for (const auto &config : model::tableIIModels()) {
        const auto plans = makePlans(config, node);
        const auto shards = plans.elasticRec.tableShards(0);
        std::vector<std::uint64_t> boundaries;
        for (const auto *s : shards)
            boundaries.push_back(s->endRow);
        const auto er_report = sim::measureUtility(
            config, boundaries, shards, target_qps,
            {.numQueries = 1000});
        const auto mw_report = sim::measureUtility(
            config, {config.rowsPerTable},
            {&plans.modelWise.frontendShard()}, target_qps,
            {.numQueries = 1000});

        std::cout << "\n" << config.name << " (table 0):\n";
        TablePrinter t({"shard", "rows", "utility", "replicas@" +
                            TablePrinter::num(target_qps, 0)});
        t.addRow({"MW S1",
                  TablePrinter::num(static_cast<std::int64_t>(
                      config.rowsPerTable)),
                  TablePrinter::percent(mw_report.shardUtility[0]),
                  TablePrinter::num(static_cast<std::int64_t>(
                      mw_report.shardReplicas[0]))});
        for (std::size_t s = 0; s < shards.size(); ++s) {
            t.addRow({"ER S" + std::to_string(s + 1),
                      TablePrinter::num(static_cast<std::int64_t>(
                          shards[s]->endRow - shards[s]->beginRow)),
                      TablePrinter::percent(er_report.shardUtility[s]),
                      TablePrinter::num(static_cast<std::int64_t>(
                          er_report.shardReplicas[s]))});
        }
        t.print(std::cout);
        const double gain =
            er_report.shardUtility.front() /
            std::max(1e-9, mw_report.shardUtility[0]);
        std::cout << "  hottest-shard utility gain vs model-wise: "
                  << TablePrinter::ratio(gain, 1) << "\n";
    }
}

/**
 * Figures 15/18: server nodes needed to meet the fleet target QPS,
 * validated with a steady-state simulation run (achieved QPS and P95
 * latency under the planned replica counts).
 */
inline void
nodesFigure(const hw::NodeSpec &node, double target_qps,
            const double (&paper_reductions)[3])
{
    TablePrinter t({"model", "MW nodes", "ER nodes", "measured",
                    "paper", "ER achieved QPS", "ER p95 ms",
                    "ER mean ms"});
    int i = 0;
    for (const auto &config : model::tableIIModels()) {
        const auto plans = makePlans(config, node);
        const auto mw = sim::evaluateStatic(plans.modelWise, node,
                                            target_qps);
        const auto er = sim::runSteadyState(
            plans.elasticRec, node, target_qps,
            {.duration = 60 * units::kSecond});
        t.addRow({config.name,
                  TablePrinter::num(static_cast<std::int64_t>(
                      mw.nodes)),
                  TablePrinter::num(static_cast<std::int64_t>(
                      er.staticView.nodes)),
                  TablePrinter::ratio(static_cast<double>(mw.nodes) /
                                      er.staticView.nodes),
                  TablePrinter::ratio(paper_reductions[i]),
                  TablePrinter::num(er.achievedQps, 1),
                  TablePrinter::num(er.p95LatencyMs, 1),
                  TablePrinter::num(er.meanLatencyMs, 1)});
        ++i;
    }
    t.print(std::cout);
}

} // namespace erec::bench
