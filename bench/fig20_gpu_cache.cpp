/**
 * @file
 * Figure 20 (Section VI-E): ElasticRec versus model-wise augmented
 * with a GPU-side embedding cache capturing 90% of gathers, on the
 * CPU-GPU platform at 200 queries/sec.
 *
 * Paper reference: the cache cuts the embedding layer's latency by
 * ~47% and system memory by ~41% versus plain model-wise, but
 * ElasticRec still consumes 1.7x less memory than model-wise (cache).
 */

#include "bench_util.h"

using namespace erec;

int
main()
{
    bench::quietLogs();
    bench::banner("Figure 20: vs model-wise + GPU embedding cache "
                  "(CPU-GPU, 200 QPS)",
                  "cache: -47% embedding latency, -41% memory vs MW; "
                  "ER still 1.7x below MW(cache)");

    const auto node = hw::cpuGpuNode();
    const double target = 200.0;

    TablePrinter t({"model", "model-wise", "MW (cache)", "ElasticRec",
                    "MW/cache", "cache/ER"});
    for (const auto &config : model::tableIIModels()) {
        core::Planner planner = core::Planner::forPlatform(config, node);
        const auto cdf = sim::cdfFor(config);
        const auto er = planner.planElasticRec({cdf});
        const auto mw = planner.planModelWise();
        const auto cache = planner.planModelWiseGpuCache();

        const auto mw_mem = mw.memoryForTarget(target);
        const auto cache_mem = cache.memoryForTarget(target);
        const auto er_mem = er.memoryForTarget(target);
        t.addRow({config.name, units::formatBytes(mw_mem),
                  units::formatBytes(cache_mem),
                  units::formatBytes(er_mem),
                  TablePrinter::ratio(static_cast<double>(mw_mem) /
                                      cache_mem),
                  TablePrinter::ratio(static_cast<double>(cache_mem) /
                                      er_mem)});
    }
    t.print(std::cout);

    // Latency effect of the cache on the embedding stage (RM1).
    {
        core::Planner planner =
            core::Planner::forPlatform(model::rm1(), node);
        const auto mw = planner.planModelWise();
        const auto cache = planner.planModelWiseGpuCache();
        const double plain =
            units::toMillis(mw.frontendShard().stageLatencies[1]);
        const double cached =
            units::toMillis(cache.frontendShard().stageLatencies[1]);
        std::cout << "RM1 embedding-stage latency: "
                  << TablePrinter::num(plain, 1) << " ms -> "
                  << TablePrinter::num(cached, 1) << " ms ("
                  << TablePrinter::percent(1.0 - cached / plain)
                  << " reduction; paper: 47%)\n";
    }
    return 0;
}
