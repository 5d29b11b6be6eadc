/**
 * @file
 * Simulator-core throughput harness: drives the discrete-event engine
 * through a multi-million-query diurnal trace on both deployment plans
 * (ElasticRec and the model-wise baseline) and reports how fast the
 * *simulator itself* runs — simulated queries per wall-clock second,
 * events per query, and heap allocations per query inside the gated
 * query path (pinned at exactly zero by the CI perf gate).
 *
 * Machine-readable output goes to BENCH_sim.json (override with
 * --out); the CI perf gate compares it against
 * bench/baselines/BENCH_sim.json with tools/benchdiff:
 *
 *     sim_throughput --quick --out BENCH_sim.json
 *     erec_benchdiff bench/baselines/BENCH_sim.json BENCH_sim.json \
 *         --key point --tolerance 60% \
 *         --metric-tolerance allocs_per_query=0
 *
 * The sweep's "qps" field is simulated-queries-per-wall-second (the
 * benchdiff rate contract), not the trace's arrival rate.
 *
 * Trace shape: a raised-cosine diurnal cycle (trough 100, peak
 * 500 QPS — the envelope the rm1/cpuOnlyNode fleet can track within
 * its 400 ms SLA; ~26M queries/day, millions of daily users) from
 * workload::TrafficPattern::diurnal(). The first three quarters of a
 * cycle are warm-up: they carry the trace over its first peak so every
 * capacity high-water mark (query arena, event heap, stage rings, rate
 * windows) is set before the alloc counters are zeroed, then the timed
 * window runs the remaining cycles in steady state.
 *
 * Flags:
 *   --quick           ~200k measured queries per plan for CI
 *                     (default: 10M per plan — measured ~8 min for
 *                     the ElasticRec plan, whose ~30-shard fan-out
 *                     costs ~120 events per query, and ~3 min for
 *                     model-wise; the quick run takes seconds)
 *   --queries N       measured queries per plan (overrides --quick)
 *   --out PATH        JSON output path (default BENCH_sim.json)
 *   --throttle-us N   run the timed window in one-sim-second slices
 *                     with N us of sleep between slices — deliberately
 *                     depresses the simulator's wall-clock rate so CI
 *                     can demonstrate the benchdiff gate firing. The
 *                     sliced replay re-enters run() per slice (extra
 *                     HPA/sample tick chains), so its numbers are only
 *                     meaningful as "slower than the floor".
 *   --metrics-out DIR dump the obs registry per plan
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"
#include "elasticrec/common/json.h"
#include "elasticrec/common/table_printer.h"
#include "elasticrec/sim/cluster_sim.h"
#include "elasticrec/sim/experiment.h"
#include "elasticrec/workload/traffic.h"

namespace erec::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchOptions
{
    std::uint64_t queries = 10'000'000;
    std::string out = "BENCH_sim.json";
    std::string metricsOut;
    std::uint64_t throttleUs = 0;
    bool quick = false;
};

/** One plan's measurements. */
struct SweepResult
{
    std::size_t point = 0;
    std::string plan;
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    double simSeconds = 0.0;
    double wallSeconds = 0.0;
    /** Simulated queries completed per wall-clock second — the
     *  benchdiff rate field. */
    double qps = 0.0;
    double eventsPerQuery = 0.0;
    /** Heap allocations per completed query inside the sim.query_path
     *  AllocGate region during the timed window — gated at exactly
     *  zero by the CI perf gate. */
    double allocsPerQuery = 0.0;
    double meanLatencyMs = 0.0;
    double p95LatencyMs = 0.0;
    std::uint64_t scaleEvents = 0;
};

BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            opts.quick = true;
            opts.queries = 200'000;
        } else if (arg == "--queries" && i + 1 < argc) {
            opts.queries = std::stoull(argv[++i]);
        } else if (arg == "--out" && i + 1 < argc) {
            opts.out = argv[++i];
        } else if (arg == "--throttle-us" && i + 1 < argc) {
            opts.throttleUs = std::stoull(argv[++i]);
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            opts.metricsOut = argv[++i];
        } else {
            erec::fatal("unknown bench flag: " + arg);
        }
    }
    ERC_CHECK(opts.queries >= 1000,
              "--queries must be at least 1000 for a meaningful rate");
    return opts;
}

/** Million-user-scale diurnal trace (DESIGN.md section 13). */
workload::TrafficPattern::DiurnalOptions
diurnalShape()
{
    workload::TrafficPattern::DiurnalOptions d;
    d.troughQps = 100.0;
    d.peakQps = 500.0;
    d.period = 10 * units::kMinute;
    d.step = units::kSecond;
    return d;
}

/** Mean arrival rate of the raised-cosine cycle. */
double
meanQps(const workload::TrafficPattern::DiurnalOptions &d)
{
    return 0.5 * (d.troughQps + d.peakQps);
}

std::uint64_t
queryPathAllocs()
{
    for (const auto &stats : allocRegionStats())
        if (std::string(stats.name) == "sim.query_path")
            return stats.allocs;
    return 0;
}

/** Run one plan: warm over the first diurnal peak, zero the region
 *  counters, then time the remaining cycles. */
SweepResult
runPoint(std::size_t point, const std::string &plan_name,
         const core::DeploymentPlan &plan, const hw::NodeSpec &node,
         const BenchOptions &opts)
{
    auto shape = diurnalShape();
    // Warm-up carries the trace past its first peak (t = period / 2)
    // so every high-water mark is set before the counters are zeroed.
    const SimTime warm = 3 * shape.period / 4;
    const SimTime measure = static_cast<SimTime>(
        static_cast<double>(opts.queries) / meanQps(shape) *
        static_cast<double>(units::kSecond));
    shape.duration = warm + measure + shape.period;

    sim::SimOptions sim_opts;
    sim_opts.seed = 42;
    sim_opts.sampling = sim::SamplingMode::EventTime;
    sim::ClusterSimulation sim(plan, node,
                               workload::TrafficPattern::diurnal(shape),
                               sim_opts);

    sim.run(warm);
    resetAllocRegionStats();
    const std::uint64_t events_before = sim.eventsExecuted();

    sim::SimResult result;
    const auto t0 = Clock::now();
    if (opts.throttleUs == 0) {
        result = sim.run(warm + measure);
    } else {
        // Self-test mode: replay the window in one-sim-second slices
        // with a sleep per slice, so the wall-clock rate collapses and
        // the benchdiff gate must fire. Counters are summed across
        // slices; latency fields are left at the last slice's values.
        for (SimTime t = warm + units::kSecond; t <= warm + measure;
             t += units::kSecond) {
            const auto slice = sim.run(t);
            result.arrivals += slice.arrivals;
            result.completed += slice.completed;
            result.scaleEvents += slice.scaleEvents;
            result.meanLatencyMs = slice.meanLatencyMs;
            result.p95LatencyOverallMs = slice.p95LatencyOverallMs;
            std::this_thread::sleep_for(
                std::chrono::microseconds(opts.throttleUs));
        }
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();

    SweepResult r;
    r.point = point;
    r.plan = plan_name;
    r.arrivals = result.arrivals;
    r.completed = result.completed;
    r.simSeconds = static_cast<double>(measure) /
                   static_cast<double>(units::kSecond);
    r.wallSeconds = wall_s;
    r.qps = static_cast<double>(result.completed) / wall_s;
    r.eventsPerQuery =
        result.completed > 0
            ? static_cast<double>(sim.eventsExecuted() - events_before) /
                  static_cast<double>(result.completed)
            : 0.0;
    r.allocsPerQuery =
        result.completed > 0
            ? static_cast<double>(queryPathAllocs()) /
                  static_cast<double>(result.completed)
            : 0.0;
    r.meanLatencyMs = result.meanLatencyMs;
    r.p95LatencyMs = result.p95LatencyOverallMs;
    r.scaleEvents = result.scaleEvents;

    if (!opts.metricsOut.empty())
        exportSimMetrics(opts.metricsOut, "sim_" + plan_name, sim);
    return r;
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/** Deterministic-format JSON for tools/benchdiff: one sweep entry per
 *  deployment plan, keyed by "point". */
void
writeJson(const std::string &path, const BenchOptions &opts,
          const std::vector<SweepResult> &sweep)
{
    std::ofstream out(path);
    ERC_CHECK(out.good(), "cannot open bench output file " << path);
    out << "{\n";
    out << "  \"bench\": \"sim_throughput\",\n";
    out << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n";
    out << "  \"throttle_us\": " << opts.throttleUs << ",\n";
    out << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto &r = sweep[i];
        out << "    {\"point\": " << r.point
            << ", \"plan\": \"" << jsonEscape(r.plan) << "\""
            << ", \"queries\": " << r.completed
            << ", \"arrivals\": " << r.arrivals
            << ", \"sim_seconds\": " << jsonNum(r.simSeconds)
            << ", \"wall_seconds\": " << jsonNum(r.wallSeconds)
            << ", \"qps\": " << jsonNum(r.qps)
            << ", \"events_per_query\": " << jsonNum(r.eventsPerQuery)
            << ", \"allocs_per_query\": " << jsonNum(r.allocsPerQuery)
            << ", \"mean_latency_ms\": " << jsonNum(r.meanLatencyMs)
            << ", \"p95_latency_ms\": " << jsonNum(r.p95LatencyMs)
            << ", \"scale_events\": " << r.scaleEvents << "}"
            << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    ERC_CHECK(out.good(), "failed writing bench output " << path);
}

int
run(const BenchOptions &opts)
{
    quietLogs();
    banner("Simulator-core throughput (event engine, diurnal trace)",
           "DESIGN.md section 13 (no paper figure; CI perf gate input)");
    const auto shape = diurnalShape();
    std::cout << "measured queries/plan: " << opts.queries
              << "  trace: raised-cosine "
              << static_cast<std::uint64_t>(shape.troughQps) << ".."
              << static_cast<std::uint64_t>(shape.peakQps)
              << " QPS, period "
              << shape.period / units::kSecond << " s";
    if (opts.throttleUs > 0)
        std::cout << "  [THROTTLED " << opts.throttleUs << " us/slice]";
    std::cout << "\n\n";

    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plans = makePlans(config, node);

    std::vector<SweepResult> sweep;
    sweep.push_back(
        runPoint(0, "elasticrec", plans.elasticRec, node, opts));
    sweep.push_back(
        runPoint(1, "modelwise", plans.modelWise, node, opts));

    TablePrinter table({"plan", "queries", "wall s", "sim q/s",
                        "events/q", "allocs/q", "p95 ms", "scale ev"});
    for (const auto &r : sweep)
        table.addRow({r.plan,
                      TablePrinter::num(static_cast<std::int64_t>(
                          r.completed)),
                      TablePrinter::num(r.wallSeconds, 2),
                      TablePrinter::num(r.qps, 0),
                      TablePrinter::num(r.eventsPerQuery, 2),
                      TablePrinter::num(r.allocsPerQuery, 3),
                      TablePrinter::num(r.p95LatencyMs, 1),
                      TablePrinter::num(static_cast<std::int64_t>(
                          r.scaleEvents))});
    table.print(std::cout);

    writeJson(opts.out, opts, sweep);
    std::cout << "\nwrote " << opts.out << "\n";
    return 0;
}

} // namespace
} // namespace erec::bench

int
main(int argc, char **argv)
{
    return erec::bench::runHarness(
        argc, argv,
        "[--quick] [--queries N] [--out PATH] "
        "[--throttle-us N] [--metrics-out DIR]",
        erec::bench::parseArgs, erec::bench::run);
}
