/**
 * @file
 * Extension study (beyond the paper): ElasticRec + GPU hot-prefix
 * cache. The hottest rows of every table live in the dense shard's
 * HBM, so the bulk of gathers never pay the RPC fabric or a CPU
 * hot-shard replica fleet; only the cold tail is partitioned into CPU
 * sparse shards. Compared against plain ElasticRec and both model-wise
 * variants at the paper's CPU-GPU operating point (200 QPS).
 */

#include "bench_util.h"

using namespace erec;

int
main()
{
    bench::quietLogs();
    bench::banner("Extension: ElasticRec + GPU hot-prefix cache "
                  "(CPU-GPU, 200 QPS)",
                  "synthesis of Section IV elasticity and Section "
                  "VI-E's GPU cache");

    const auto node = hw::cpuGpuNode();
    const double target = 200.0;

    for (const auto &config : model::tableIIModels()) {
        core::Planner planner = core::Planner::forPlatform(config, node);
        const auto cdf = sim::cdfFor(config);

        // Hot prefix sized to a quarter of HBM across all tables.
        const Bytes row_bytes = Bytes{config.embeddingDim} * 4;
        const std::uint64_t hot_rows =
            node.gpu.hbmCapacity / 4 / row_bytes / config.numTables;

        const auto er = planner.planElasticRec({cdf});
        const auto hot = planner.planElasticRecHotCache({cdf}, hot_rows);
        const auto mw = planner.planModelWise();
        const auto mwc = planner.planModelWiseGpuCache();

        std::cout << "\n" << config.name << " (hot prefix " << hot_rows
                  << " rows/table = "
                  << TablePrinter::percent(
                         cdf->massOfTopRows(hot_rows))
                  << " of gathers in HBM):\n";
        TablePrinter t({"policy", "memory", "replicas", "nodes",
                        "vs plain ER"});
        const auto er_view = sim::evaluateStatic(er, node, target);
        for (const auto *plan : {&mw, &mwc, &er, &hot}) {
            const auto view = sim::evaluateStatic(*plan, node, target);
            t.addRow({plan->policy, units::formatBytes(view.memory),
                      TablePrinter::num(static_cast<std::int64_t>(
                          view.totalReplicas)),
                      TablePrinter::num(static_cast<std::int64_t>(
                          view.nodes)),
                      TablePrinter::ratio(
                          static_cast<double>(er_view.memory) /
                          static_cast<double>(view.memory))});
        }
        t.print(std::cout);
    }
    std::cout << "\n(values > 1.00x in the last column beat plain "
                 "ElasticRec on memory)\n";
    return 0;
}
