/**
 * @file
 * Ablation: the DP partitioner (Algorithm 2) versus two simpler
 * heuristics over the same cost model —
 *   equal-split: divide the sorted table into S equal-row shards;
 *   hot-cold:    a two-way split at the hot-set boundary (top 10%).
 * Reported as estimated deployment memory at the paper's DP target
 * traffic of 1000 queries/sec, using Algorithm 1's COST directly.
 */

#include "bench_util.h"

using namespace erec;

namespace {

double
planCost(const core::CostModel &cost,
         const std::vector<std::uint64_t> &boundaries)
{
    double total = 0;
    std::uint64_t begin = 0;
    for (auto end : boundaries) {
        total += cost.cost(begin, end);
        begin = end;
    }
    return total;
}

} // namespace

int
main()
{
    bench::quietLogs();
    bench::banner("Ablation: DP partitioner vs heuristics",
                  "Algorithm 2 vs equal-split and hot/cold split");

    const auto node = hw::cpuOnlyNode();
    for (const auto &config : model::tableIIModels()) {
        core::Planner planner(config, node);
        const auto cdf = sim::cdfFor(config);
        const auto cost = planner.costModel(cdf);

        const auto dp = planner.partitionTable(*cdf);
        const std::uint64_t rows = config.rowsPerTable;

        TablePrinter t({"strategy", "shards", "est. memory",
                        "vs DP"});
        const double dp_cost = dp.cost;
        t.addRow({"DP (Algorithm 2)",
                  TablePrinter::num(static_cast<std::int64_t>(
                      dp.numShards())),
                  units::formatBytes(static_cast<Bytes>(dp_cost)),
                  "1.00x"});

        for (std::uint32_t s : {2u, 4u, 8u}) {
            std::vector<std::uint64_t> eq;
            for (std::uint32_t i = 1; i <= s; ++i)
                eq.push_back(rows * i / s);
            const double c = planCost(cost, eq);
            t.addRow({"equal-split " + std::to_string(s),
                      TablePrinter::num(static_cast<std::int64_t>(s)),
                      units::formatBytes(static_cast<Bytes>(c)),
                      TablePrinter::ratio(c / dp_cost)});
        }
        {
            const std::vector<std::uint64_t> hc = {rows / 10, rows};
            const double c = planCost(cost, hc);
            t.addRow({"hot/cold @10%", "2",
                      units::formatBytes(static_cast<Bytes>(c)),
                      TablePrinter::ratio(c / dp_cost)});
        }
        std::cout << "\n" << config.name << ":\n";
        t.print(std::cout);
    }
    std::cout << "(the DP plan should never lose to a heuristic under "
                 "the same cost model)\n";
    return 0;
}
