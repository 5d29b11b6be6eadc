/**
 * @file
 * The kernel-backend sweep behind the CI perf gate. Runs the
 * gather-sum-pool at d in {32, 64, 128, 256} over a cache-resident
 * table, the blocked GEMM on a 256 -> 128 layer, a DRAM-resident
 * gather (d = 32, a table of max(4 x LLC, 64 MiB) read at locality-P
 * ranks through a shuffled hotness permutation) and the GEMM on RM3's
 * 2560 -> 512 first bottom layer (5 MiB of weights) on every backend
 * the host supports (scalar always; avx2/avx512 when usable), and
 * prints one table row per point. These measure *this host's* real
 * performance (the analogue of the paper's one-time profiling pass,
 * Figure 9), independent of the calibrated cluster model the figure
 * benches use.
 *
 * With `--json PATH` it also writes benchdiff-schema JSON: one sweep
 * entry per (backend, kernel, dim) point, keyed by a stable numeric
 * "point" id (backend_index * 10 + {0..3 gather by dim, 4 gemm, 5 DRAM
 * gather, 6 RM3-layer gemm}), with "qps" holding GB/s (gather) or
 * GFLOP/s (GEMM) and "allocs_per_call" the heap allocations inside the
 * gather AllocGate regions. The gate only checks the scalar points
 * (0-4) against bench/baselines/BENCH_kernels.json, so baselines hold
 * across hosts with different ISAs and cache sizes:
 *
 *     kernel_bench --json BENCH_kernels.json --quick
 *     erec_benchdiff bench/baselines/BENCH_kernels.json \
 *         BENCH_kernels.json --key point --tolerance 40% \
 *         --metric-tolerance allocs_per_call=0
 *
 * Flags:
 *   --json PATH       also write the sweep as JSON
 *   --quick           fewer reps per point for CI (default full run)
 *   --throttle-us N   sleep N us between reps — deliberately depresses
 *                     the measured rate so CI can demonstrate the
 *                     benchdiff regression gate firing
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"
#include "elasticrec/common/json.h"
#include "elasticrec/common/table_printer.h"
#include "elasticrec/embedding/embedding_table.h"
#include "elasticrec/embedding/sharded_table.h"
#include "elasticrec/kernels/registry.h"
#include "elasticrec/model/mlp.h"
#include "elasticrec/workload/access_distribution.h"

namespace erec::bench {
namespace {

using Clock = std::chrono::steady_clock;

/** Compiler barrier: the timed call's output at `p` counts as read. */
inline void keep(const void *p) { asm volatile("" : : "g"(p) : "memory"); }

struct SweepOptions
{
    std::string out;
    std::uint64_t throttleUs = 0;
    bool quick = false;
};

/** One (backend, kernel, dim) measurement. */
struct KernelResult
{
    /** Stable benchdiff sweep key: backend_index * 10 + variant. */
    std::size_t point = 0;
    std::string backend;
    std::string kernel;
    std::uint32_t dim = 0;
    /** GB/s for gather, GFLOP/s for GEMM ("qps" in the JSON). */
    double rate = 0.0;
    double allocsPerCall = 0.0;
};

SweepOptions
parseArgs(int argc, char **argv)
{
    SweepOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            opts.out = argv[++i];
        } else if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--throttle-us" && i + 1 < argc) {
            opts.throttleUs = std::stoull(argv[++i]);
        } else {
            erec::fatal("unknown kernel_bench flag: " + arg);
        }
    }
    return opts;
}

/** Allocation count inside all tracked regions since the last reset. */
std::uint64_t
regionAllocs()
{
    std::uint64_t total = 0;
    for (const auto &stats : allocRegionStats())
        total += stats.allocs;
    return total;
}

/**
 * Time `reps` calls of `fn` (throttle sleeps excluded from nothing —
 * the throttle deliberately depresses the rate) and return
 * {units_per_call * reps / elapsed_s, region allocs per call}.
 */
template <typename Fn>
std::pair<double, double>
timedLoop(std::size_t reps, std::uint64_t throttle_us, double units,
          Fn &&fn)
{
    resetAllocRegionStats();
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
        if (throttle_us > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(throttle_us));
        fn();
    }
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const double rate =
        units * static_cast<double>(reps) / elapsed_s / 1e9;
    const double allocs = static_cast<double>(regionAllocs()) /
                          static_cast<double>(reps);
    return {rate, allocs};
}

/**
 * Gather-sum-pool rate for one backend at one embedding dim: a
 * cache-resident table (4096 rows, <= 4 MiB at d=256 — the kernel
 * sweep measures compute, not DRAM), batch 32, pooling factor 64.
 */
KernelResult
runGatherPoint(const kernels::KernelBackend &backend,
               std::size_t backend_index, std::size_t variant,
               std::uint32_t dim, const SweepOptions &opts)
{
    constexpr std::uint64_t kRows = 4096;
    constexpr std::size_t kBatch = 32;
    constexpr std::size_t kPooling = 64;
    embedding::EmbeddingTable table(kRows, dim);

    Rng rng(7);
    std::vector<std::uint32_t> indices(kBatch * kPooling);
    for (auto &i : indices)
        i = static_cast<std::uint32_t>(rng.uniformInt(kRows));
    std::vector<std::uint32_t> offsets(kBatch);
    for (std::size_t b = 0; b < kBatch; ++b)
        offsets[b] = static_cast<std::uint32_t>(b * kPooling);
    const kernels::GatherRequest req(indices, offsets);
    std::vector<float> out(kBatch * dim);

    for (int w = 0; w < 8; ++w)
        table.gatherPool(req, out.data(), backend);

    const std::size_t reps = opts.quick ? 200 : 1000;
    const double bytes_per_call =
        static_cast<double>(indices.size()) * dim * sizeof(float);
    const auto [rate, allocs] =
        timedLoop(reps, opts.throttleUs, bytes_per_call, [&] {
            table.gatherPool(req, out.data(), backend);
            keep(out.data());
        });

    KernelResult r;
    r.point = backend_index * 10 + variant;
    r.backend = backend.name();
    r.kernel = "gather";
    r.dim = dim;
    r.rate = rate;
    r.allocsPerCall = allocs;
    return r;
}

/**
 * The DRAM-resident gather workload, built once and shared by every
 * backend: the paper's regime of a table far past the LLC, stored in
 * original-ID order behind a shuffled hotness permutation and read at
 * locality-P (P = 0.9) ranks through ShardedTable, in RM1-shaped
 * requests (batch 32, pooling 128).
 */
struct DramGather
{
    static constexpr std::uint32_t kDim = 32;
    static constexpr std::size_t kBatch = 32;
    static constexpr std::size_t kPooling = 128;
    /** Distinct requests cycled through, so reps do not replay one
     *  request's rows out of cache. */
    static constexpr std::size_t kRequests = 16;

    std::unique_ptr<embedding::ShardedTable> table;
    std::vector<std::vector<std::uint32_t>> indices;
    std::vector<std::uint32_t> offsets;

    DramGather()
    {
        // 4 x LLC from sysconf, at least 64 MiB (also when the query
        // reports nothing).
        const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
        const std::uint64_t bytes = std::max<std::uint64_t>(
            4 * static_cast<std::uint64_t>(std::max(llc, 0L)), 64ull << 20);
        const std::uint64_t rows = bytes / (kDim * sizeof(float));
        Rng rng(11);
        std::vector<std::uint32_t> perm(rows);
        std::iota(perm.begin(), perm.end(), 0u);
        for (std::uint64_t r = rows - 1; r > 0; --r)
            std::swap(perm[r], perm[rng.uniformInt(r + 1)]);
        table = std::make_unique<embedding::ShardedTable>(
            std::make_shared<const embedding::EmbeddingTable>(rows, kDim),
            perm, std::vector<std::uint64_t>{rows});

        const workload::LocalityDistribution ranks(rows, 0.9);
        indices.resize(kRequests);
        for (auto &req : indices) {
            req.resize(kBatch * kPooling);
            for (auto &i : req)
                i = static_cast<std::uint32_t>(ranks.sampleRank(rng));
        }
        for (std::size_t b = 0; b < kBatch; ++b)
            offsets.push_back(static_cast<std::uint32_t>(b * kPooling));
    }
};

/** DRAM-resident gather rate for one backend (point backend*10 + 5). */
KernelResult
runDramGatherPoint(const DramGather &work,
                   const kernels::KernelBackend &backend,
                   std::size_t backend_index, const SweepOptions &opts)
{
    std::vector<float> out(DramGather::kBatch * DramGather::kDim);
    std::size_t next = 0;
    auto gather = [&] {
        const kernels::GatherRequest req(work.indices[next], work.offsets);
        work.table->gatherPool(0, req, out.data(), backend);
        keep(out.data());
        next = (next + 1) % DramGather::kRequests;
    };
    for (std::size_t w = 0; w < DramGather::kRequests; ++w)
        gather();

    const std::size_t reps = opts.quick ? 200 : 1000;
    const double bytes_per_call = static_cast<double>(
        DramGather::kBatch * DramGather::kPooling * DramGather::kDim *
        sizeof(float));
    const auto [rate, allocs] =
        timedLoop(reps, opts.throttleUs, bytes_per_call, gather);

    KernelResult r;
    r.point = backend_index * 10 + 5;
    r.backend = backend.name();
    r.kernel = "gather_dram";
    r.dim = DramGather::kDim;
    r.rate = rate;
    r.allocsPerCall = allocs;
    return r;
}

/**
 * Blocked-GEMM rate for one backend through the MLP forward pass at
 * batch 32 over one `in` -> `out` layer: point backend*10 + 4 is a
 * 256 -> 128 layer (128 KiB of weights, L2-resident), point
 * backend*10 + 6 RM3's first bottom layer, 2560 -> 512 (5 MiB of
 * weights, past L2).
 */
KernelResult
runGemmPoint(const kernels::KernelBackend &backend,
             std::size_t backend_index, std::size_t variant,
             const char *kernel, std::size_t in_dim, std::size_t out_dim,
             const SweepOptions &opts)
{
    constexpr std::size_t kBatch = 32;
    model::Mlp mlp(model::MlpSpec{{static_cast<std::uint32_t>(in_dim),
                                   static_cast<std::uint32_t>(out_dim)}},
                   /*seed=*/3);
    std::vector<float> in(kBatch * in_dim);
    Rng rng(9);
    for (auto &v : in)
        v = static_cast<float>(rng.uniform()) - 0.5f;
    std::vector<float> out(kBatch * out_dim);

    for (int w = 0; w < 8; ++w)
        mlp.forward(in.data(), kBatch, out.data(), backend);

    const double flops_per_call =
        2.0 * static_cast<double>(kBatch) * in_dim * out_dim;
    // Point 4's FLOPs per point whatever the layer size, at least 20
    // calls.
    const std::size_t reps = std::max<std::size_t>(
        20, (opts.quick ? 200 : 2000) * (256 * 128) / (in_dim * out_dim));
    const auto [rate, allocs] =
        timedLoop(reps, opts.throttleUs, flops_per_call, [&] {
            mlp.forward(in.data(), kBatch, out.data(), backend);
            keep(out.data());
        });

    KernelResult r;
    r.point = backend_index * 10 + variant;
    r.backend = backend.name();
    r.kernel = kernel;
    r.dim = 0;
    r.rate = rate;
    r.allocsPerCall = allocs;
    return r;
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/** Deterministic-format JSON for tools/benchdiff, keyed by "point". */
void
writeJson(const SweepOptions &opts,
          const std::vector<KernelResult> &sweep)
{
    std::ofstream out(opts.out);
    ERC_CHECK(out.good(),
              "cannot open bench output file " << opts.out);
    out << "{\n";
    out << "  \"bench\": \"kernel_bench\",\n";
    out << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n";
    out << "  \"throttle_us\": " << opts.throttleUs << ",\n";
    out << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto &r = sweep[i];
        out << "    {\"point\": " << r.point << ", \"backend\": \""
            << jsonEscape(r.backend) << "\", \"kernel\": \""
            << jsonEscape(r.kernel) << "\", \"dim\": " << r.dim
            << ", \"qps\": " << jsonNum(r.rate)
            << ", \"allocs_per_call\": " << jsonNum(r.allocsPerCall)
            << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    ERC_CHECK(out.good(),
              "failed writing bench output " << opts.out);
}

int
run(const SweepOptions &opts)
{
    quietLogs();
    banner("Kernel-backend sweep (gather-sum-pool + blocked GEMM)",
           "DESIGN.md section 11 (no paper figure; CI perf gate input)");
    const auto &backends = kernels::availableBackends();
    std::cout << "backends:";
    for (const auto *b : backends)
        std::cout << " " << b->name();
    if (opts.throttleUs > 0)
        std::cout << "  [THROTTLED " << opts.throttleUs << " us/rep]";
    std::cout << "\n\n";

    const std::uint32_t dims[] = {32, 64, 128, 256};
    const DramGather dram;
    std::vector<KernelResult> sweep;
    for (std::size_t bi = 0; bi < backends.size(); ++bi) {
        for (std::size_t di = 0; di < 4; ++di)
            sweep.push_back(runGatherPoint(*backends[bi], bi, di,
                                           dims[di], opts));
        sweep.push_back(runGemmPoint(*backends[bi], bi, 4, "gemm", 256, 128,
                                     opts));
        sweep.push_back(runDramGatherPoint(dram, *backends[bi], bi, opts));
        sweep.push_back(runGemmPoint(*backends[bi], bi, 6, "gemm_rm3", 2560,
                                     512, opts));
    }

    TablePrinter table(
        {"backend", "kernel", "dim", "rate", "allocs/call"});
    for (const auto &r : sweep)
        table.addRow(
            {r.backend, r.kernel,
             r.dim > 0 ? TablePrinter::num(
                             static_cast<std::int64_t>(r.dim))
                       : std::string("-"),
             TablePrinter::num(r.rate, 2) +
                 (r.kernel.starts_with("gemm") ? " GFLOP/s" : " GB/s"),
             TablePrinter::num(r.allocsPerCall, 3)});
    table.print(std::cout);

    // Headline number for the PR acceptance bar: widest backend vs
    // scalar on the d=128 gather.
    double scalar128 = 0.0, best128 = 0.0;
    for (const auto &r : sweep) {
        if (r.kernel != "gather" || r.dim != 128)
            continue;
        if (r.backend == "scalar")
            scalar128 = r.rate;
        best128 = std::max(best128, r.rate);
    }
    if (scalar128 > 0.0)
        std::cout << "gather-pool d=128 speedup (best backend vs "
                     "scalar): "
                  << TablePrinter::ratio(best128 / scalar128) << "\n";

    if (!opts.out.empty()) {
        writeJson(opts, sweep);
        std::cout << "\nwrote " << opts.out << "\n";
    }
    return 0;
}

} // namespace
} // namespace erec::bench

int
main(int argc, char **argv)
{
    return erec::bench::runHarness(
        argc, argv,
        "[--json PATH] [--quick] [--throttle-us N]",
        erec::bench::parseArgs, erec::bench::run);
}
