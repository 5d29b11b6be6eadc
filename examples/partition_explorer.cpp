/**
 * @file
 * Example: explore ElasticRec's utility-based table partitioning on the
 * paper-scale RM1/RM2/RM3 workloads (Table II).
 *
 * For each workload this prints the profiling-based QPS curve summary,
 * the DP partitioning plan (shard boundaries, expected gathers, QPS and
 * replica counts), and the deployment-memory comparison against the
 * model-wise baseline at the paper's CPU-only fleet target of
 * 100 queries/sec.
 */

#include <iostream>

#include "elasticrec/common/table_printer.h"
#include "elasticrec/core/planner.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/model/dlrm_config.h"
#include "elasticrec/sim/experiment.h"

using namespace erec;

int
main()
{
    const hw::NodeSpec node = hw::cpuOnlyNode();
    const double target_qps = 100.0;

    for (const auto &config : model::tableIIModels()) {
        std::cout << "=== " << config.name << " ("
                  << config.numTables << " tables x "
                  << config.rowsPerTable << " rows, pooling "
                  << config.poolingFactor << ", P="
                  << config.localityP << ") ===\n";

        core::Planner planner(config, node);
        const auto cdf = sim::cdfFor(config);
        const auto er = planner.planElasticRec({cdf});
        const auto mw = planner.planModelWise();

        // Show the per-table partitioning plan (all tables share one
        // access CDF here, so one table is representative).
        TablePrinter shard_table({"shard", "rows", "size", "n_s",
                                  "QPS/replica", "replicas@" +
                                      TablePrinter::num(target_qps, 0)});
        for (const auto *s : er.tableShards(0)) {
            shard_table.addRow(
                {s->name, TablePrinter::num(static_cast<std::int64_t>(
                              s->endRow - s->beginRow)),
                 units::formatBytes(s->memBytes),
                 TablePrinter::num(s->expectedGathers, 1),
                 TablePrinter::num(s->qpsPerReplica, 1),
                 TablePrinter::num(static_cast<std::int64_t>(
                     core::DeploymentPlan::replicasForTarget(
                         *s, target_qps)))});
        }
        shard_table.print(std::cout);

        const auto &dense = er.frontendShard();
        std::cout << "dense shard: QPS/replica="
                  << TablePrinter::num(dense.qpsPerReplica, 1)
                  << ", latency="
                  << units::toMillis(dense.serviceLatency()) << " ms, "
                  << "replicas@" << target_qps << "="
                  << core::DeploymentPlan::replicasForTarget(dense,
                                                             target_qps)
                  << "\n";
        const auto &mono = mw.frontendShard();
        std::cout << "model-wise: QPS/replica="
                  << TablePrinter::num(mono.qpsPerReplica, 1)
                  << ", latency="
                  << units::toMillis(mono.serviceLatency())
                  << " ms (dense "
                  << units::toMillis(mono.stageLatencies[0])
                  << " + sparse "
                  << units::toMillis(mono.stageLatencies[1]) << ")\n";

        const auto er_static = sim::evaluateStatic(er, node, target_qps);
        const auto mw_static = sim::evaluateStatic(mw, node, target_qps);
        TablePrinter cmp({"policy", "memory", "replicas", "nodes"});
        for (const auto *d : {&mw_static, &er_static}) {
            cmp.addRow({d->policy, units::formatBytes(d->memory),
                        TablePrinter::num(static_cast<std::int64_t>(
                            d->totalReplicas)),
                        TablePrinter::num(static_cast<std::int64_t>(
                            d->nodes))});
        }
        cmp.print(std::cout);
        std::cout << "memory reduction: "
                  << TablePrinter::ratio(
                         static_cast<double>(mw_static.memory) /
                         static_cast<double>(er_static.memory))
                  << ", node reduction: "
                  << TablePrinter::ratio(
                         static_cast<double>(mw_static.nodes) /
                         static_cast<double>(er_static.nodes))
                  << "\n\n";
    }
    return 0;
}
