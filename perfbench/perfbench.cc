/**
 * @file
 * ElasticRec end-to-end benchmark harness.
 *
 * One process runs one workload: it builds the real in-process serving
 * stack (serving::buildElasticRecStack over a materialized model whose
 * tables are >= 4x the last-level cache, partitioned by
 * core::Planner::planElasticRec and remapped through a seeded hotness
 * permutation), drives it open loop from one generator thread through a
 * QueryDispatcher on an executor with nproc - 1 workers, and times
 * sim::ClusterSimulation on the paper-scale RM1 plan over the diurnal
 * trace in slices between the serving rounds. Every layer is timed from
 * outside, by stamping calls into its public functions.
 *
 *   perfbench --workload serve_rm1 --seed 1 --seconds 10 --trace 0
 *
 * --trace 0 measures the end-to-end metrics (latency at a low and a
 * high offered rate, goodput, set-up time, peak RSS, simulator
 * throughput). --trace 1 instead serves one high-rate window through
 * the real stack and the same queries again through this file's
 * span-recording replica of DenseShardServer::serve, and reports the
 * per-layer breakdown. --inject-delay-pct P spins for P% of each real
 * serve() call, which is how the comparison's sensitivity is checked.
 *
 * The last stdout line is `PERFBENCH_RESULT <json>`; perfbench/run.py
 * turns it into the benchmark contract's result line.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"
#include "elasticrec/common/logging.h"
#include "elasticrec/core/bucketizer.h"
#include "elasticrec/core/planner.h"
#include "elasticrec/embedding/frequency_tracker.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/kernels/registry.h"
#include "elasticrec/model/dlrm.h"
#include "elasticrec/runtime/executor.h"
#include "elasticrec/serving/monolithic_server.h"
#include "elasticrec/serving/query_dispatcher.h"
#include "elasticrec/serving/stack_builder.h"
#include "elasticrec/sim/cluster_sim.h"
#include "elasticrec/sim/experiment.h"
#include "elasticrec/workload/query_generator.h"
#include "elasticrec/workload/traffic.h"

namespace pb {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** SplitMix64: derives independent stream seeds from (seed, tag). */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t tag)
{
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + tag + 0x632BE59BD9B4E019ull;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

/**
 * Spin until the target time. The generator never sleeps: on a
 * virtual machine a halted vCPU can take milliseconds to wake, which
 * would make every send after a gap late.
 */
void
waitUntil(std::int64_t target_ns)
{
    while (nowNs() < target_ns)
        std::this_thread::yield();
}

void
spinFor(std::int64_t ns)
{
    const std::int64_t until = nowNs() + ns;
    while (nowNs() < until) {
    }
}

/** Nearest-rank quantile; NaN for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    const auto n = v.size();
    auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    k = std::clamp<std::size_t>(k, 1, n) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return std::nan("");
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

/** Last-level cache size from a runtime query (sysconf, then sysfs). */
std::uint64_t
llcBytes()
{
    const long sc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (sc > 0)
        return static_cast<std::uint64_t>(sc);
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string s;
    if (in >> s && !s.empty()) {
        std::uint64_t mult = 1;
        const char unit = s.back();
        if (unit == 'K')
            mult = 1024;
        else if (unit == 'M')
            mult = 1024 * 1024;
        if (mult != 1)
            s.pop_back();
        return std::stoull(s) * mult;
    }
    return 0;
}

std::size_t
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Result collection
// ---------------------------------------------------------------------

/** Metrics (with units) plus free-form facts, printed as one JSON line. */
struct Report
{
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::map<std::string, std::string> info;
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics[name] = {value, unit};
    }
    void fact(const std::string &name, const std::string &value)
    {
        info[name] = value;
    }
    void fact(const std::string &name, double value)
    {
        std::ostringstream os;
        os.precision(6);
        os << value;
        info[name] = os.str();
    }
    void error(const std::string &what)
    {
        errors.push_back(what);
        std::cout << "CHECK FAILED: " << what << "\n";
    }
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

void
printResult(const Report &r)
{
    std::ostringstream os;
    os << "{\"correct\": " << (r.errors.empty() ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : r.metrics) {
        os << (first ? "" : ", ") << jsonString(name)
           << ": {\"value\": " << jsonNumber(vu.first)
           << ", \"unit\": " << jsonString(vu.second) << "}";
        first = false;
    }
    os << "}, \"info\": {";
    first = true;
    for (const auto &[k, v] : r.info) {
        os << (first ? "" : ", ") << jsonString(k) << ": " << jsonString(v);
        first = false;
    }
    os << "}, \"errors\": [";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        os << (i ? ", " : "") << jsonString(r.errors[i]);
    os << "]}";
    std::cout << "PERFBENCH_RESULT " << os.str() << std::endl;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * One serving traffic mix: a model shape, two offered rates and the p95
 * latency limit (SLA) the goodput ladder checks. With nproc - 1 = 3
 * workers on a 4-core VM the knee drifts with the host's load, ~320-460
 * QPS for RM1 and ~155-290 QPS for RM3, so the high rate stays at or
 * below about 60% of it: nearer the knee, p95 amplifies that drift
 * beyond any usable bound.
 */
struct WorkloadSpec
{
    const char *name;
    erec::model::DlrmConfig (*model)();
    double lowQps;
    double highQps;
    double limitMs;
    /** Distinct replayed queries; large enough that replay does not
     *  turn the gathers into cache hits. */
    std::size_t poolSize;
};

// Why each workload exists:
//  serve_rm1  gathers and bucketize carry most of serve time and the
//             MLPs little: gather / bucketizer / coalescing changes show.
//  serve_rm3  the bottom MLP carries most of it: GEMM changes show, and
//             gather changes should not.
const WorkloadSpec kWorkloads[] = {
    {"serve_rm1", erec::model::rm1, 100.0, 200.0, 50.0, 512},
    {"serve_rm3", erec::model::rm3, 50.0, 100.0, 100.0, 1024},
};

constexpr std::uint64_t kDefaultSeed = 1;
constexpr double kDefaultSeconds = 30.0;
/** Rows per table the host-scale model starts from (2M x 32 floats x
 *  10 tables = 2.56 GB); grown if that is under 4x the LLC. */
constexpr std::uint64_t kBaseRows = 2'000'000;
/** Goodput ladder: rungs 5% apart, bisected with this many probes over
 *  2^kLadderProbes rungs (4.8x the high rate). */
constexpr double kRungStep = 1.05;
constexpr int kLadderProbes = 5;
/** Set-up is repeated this many times and the median reported. */
constexpr int kSetupReps = 3;
/** Measurement rounds per end-to-end run (see runEndToEnd). */
constexpr int kRounds = 6;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = kDefaultSeconds;
    bool trace = false;
    double injectDelayPct = 0.0;
    std::string spansOut;
};

// ---------------------------------------------------------------------
// Serving: inputs made by the benchmark's own set-up
// ---------------------------------------------------------------------

/** Host-scale model config: the workload's shape with rows sized from
 *  the LLC query. */
erec::model::DlrmConfig
hostConfig(const WorkloadSpec &spec, std::uint64_t llc)
{
    auto c = spec.model();
    const std::uint64_t row_bytes = std::uint64_t{c.embeddingDim} * 4;
    const std::uint64_t need = (4 * llc + c.numTables * row_bytes - 1) /
                               (c.numTables * row_bytes);
    c.rowsPerTable = std::max(kBaseRows, need);
    c.name += "-host";
    return c;
}

/** Run body(i) for i in [0, n) on up to `threads` std::threads. */
template <typename F>
void
parallelChunks(std::size_t n, std::size_t threads, F body)
{
    std::vector<std::thread> pool;
    std::vector<std::exception_ptr> errs(threads);
    for (std::size_t k = 0; k < threads; ++k) {
        pool.emplace_back([&, k] {
            try {
                for (std::size_t i = k; i < n; i += threads)
                    body(i);
            } catch (...) {
                errs[k] = std::current_exception();
            }
        });
    }
    for (auto &t : pool)
        t.join();
    for (auto &e : errs)
        if (e)
            std::rethrow_exception(e);
}

/** One random hotness permutation per table (rank -> original ID). */
std::vector<std::vector<std::uint32_t>>
makePermutations(const erec::model::DlrmConfig &c, std::uint64_t seed)
{
    std::vector<std::vector<std::uint32_t>> perms(c.numTables);
    parallelChunks(c.numTables, 4, [&](std::size_t t) {
        auto &p = perms[t];
        p.resize(c.rowsPerTable);
        std::iota(p.begin(), p.end(), 0u);
        std::mt19937_64 rng(mixSeed(seed, 100 + t));
        std::shuffle(p.begin(), p.end(), rng);
    });
    return perms;
}

/**
 * The replayed query pool: locality-P lookups drawn in hotness-rank
 * space, then mapped through the permutation to original IDs (the
 * paper's Fig. 8(a) flow). Chunks are seeded by index, so the pool is a
 * function of the seed alone.
 */
std::vector<erec::workload::Query>
makePool(const erec::model::DlrmConfig &c, const WorkloadSpec &spec,
         const std::vector<std::vector<std::uint32_t>> &perms,
         std::uint64_t seed)
{
    constexpr std::size_t kChunks = 16;
    const std::size_t per = (spec.poolSize + kChunks - 1) / kChunks;
    std::vector<erec::workload::Query> pool(spec.poolSize);
    const auto dist = erec::sim::distributionFor(c);
    const erec::workload::QueryShape shape{c.batchSize, c.numTables,
                                           c.poolingFactor};
    parallelChunks(kChunks, 4, [&](std::size_t k) {
        erec::workload::QueryGenerator gen(shape, dist,
                                           mixSeed(seed, 200 + k));
        for (std::size_t i = k * per;
             i < std::min(spec.poolSize, (k + 1) * per); ++i) {
            pool[i] = gen.next();
            for (std::uint32_t t = 0; t < c.numTables; ++t)
                for (auto &id : pool[i].lookups[t].indices)
                    id = perms[t][id];
        }
    });
    return pool;
}

/**
 * Poisson arrival offsets (ns) over [0, seconds) at `rate`, conditioned
 * on the expected count: round(rate x seconds) uniform arrival times,
 * sorted. The offered rate is then exact, so a window's load does not
 * wander with the draw.
 */
std::vector<std::int64_t>
poissonSchedule(double rate, double seconds, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> at(0.0, seconds * 1e9);
    std::vector<std::int64_t> out(
        static_cast<std::size_t>(std::llround(rate * seconds)));
    for (auto &t : out)
        t = static_cast<std::int64_t>(at(rng));
    std::sort(out.begin(), out.end());
    return out;
}

// ---------------------------------------------------------------------
// Serving: the system under test and its per-query records
// ---------------------------------------------------------------------

/** One set-up of the serving system, timed stage by stage. */
struct Deployment
{
    std::shared_ptr<const erec::model::Dlrm> dlrm;
    std::vector<std::uint64_t> boundaries;
    erec::serving::ElasticRecStack stack;
    std::shared_ptr<erec::runtime::Executor> executor;
    /** Declared last: drained and destroyed before what it serves. */
    std::unique_ptr<erec::serving::QueryDispatcher> dispatcher;
    double modelBuildS = 0.0;
    double planS = 0.0;
    double stackBuildS = 0.0;
    double executorStartS = 0.0;

    double totalS() const
    {
        return modelBuildS + planS + stackBuildS + executorStartS;
    }
};

/** Layer calls the traced serve replica wraps in spans. */
enum SpanKind : std::uint8_t
{
    kDense,
    kBottom,
    kBucketize,
    kGather,
    kMerge,
    kInteract,
};

const char *const kSpanNames[] = {
    "model/dense_input", "model/mlp_bottom", "core/bucketize",
    "embedding/gather",  "serving/merge",    "model/interact_top",
};

/** A layer span; its parent is the query's serving/serve span. */
struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t rows = 0;
    std::uint16_t table = 0;
    std::uint16_t shard = 0;
    SpanKind kind = kDense;
};

enum : std::uint8_t
{
    kPending = 0,
    kOk = 1,
    kFailed = 2,
};

/**
 * Timestamps of one query (ns, steady clock): scheduled send, actual
 * send (submit), serve entry, completion. The worker publishes
 * start/end with a release store of `state`.
 */
struct QueryRec
{
    std::int64_t sched = 0;
    std::int64_t sent = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t spans = 0;
    std::atomic<std::uint8_t> state{kPending};
};

/** Per-thread buffers of the traced serve replica. */
struct TraceScratch
{
    std::vector<std::vector<erec::workload::SparseLookup>> buckets;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> jobs;
    std::vector<std::vector<float>> parts;
    std::vector<std::vector<float>> pooled;
};
thread_local TraceScratch t_trace;

/** This worker's allocation count when it last left a serve call. */
struct LastExit
{
    int window = -1;
    std::uint64_t allocs = 0;
};
thread_local LastExit t_lastExit;

/** An open-loop send schedule over a block of fresh query ids. */
struct Window
{
    std::string name;
    double rate = 0.0;
    double seconds = 0.0;
    std::uint64_t firstId = 0;
    std::vector<std::int64_t> offsets;
};

struct PhaseStats
{
    std::string name;
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    double offeredQps = 0.0;
    /** Successful queries per second, from the window's start to its
     *  last completion. */
    double goodputQps = 0.0;
    /** Scheduled send -> prediction ready; a failed query is +inf. */
    std::vector<double> latMs;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
    double lateP99Ms = 0.0;
    double lateMaxMs = 0.0;
    std::uint64_t outstandingEnd = 0;
    bool backlogGrew = false;
    bool pass = false;
    /** Generator lateness within the bound (see runValidPhase). */
    bool valid = true;
};

class ServingBench
{
  public:
    ServingBench(const WorkloadSpec &spec, const Options &opts,
                 Report &rep)
        : spec_(spec), opts_(opts), rep_(rep),
          config_(hostConfig(spec, llcBytes())),
          workers_(std::max<std::size_t>(1, onlineCpus() - 1)),
          inject_(opts.injectDelayPct / 100.0)
    {
    }

    /**
     * Benchmark inputs, then the system, then the replayed pool: the
     * pool's generation (benchmark set-up, not timed) lets the host
     * settle after the multi-GB table fill before anything is measured.
     */
    void run(const std::function<void(int)> &between)
    {
        std::int64_t t0 = nowNs();
        perms_ = makePermutations(config_, opts_.seed);
        double bench_setup = secondsSince(t0);
        setUpSystem();
        t0 = nowNs();
        pool_ = makePool(config_, spec_, perms_, opts_.seed);
        bench_setup += secondsSince(t0);
        rep_.fact("bench_setup_s", bench_setup);
        rep_.fact("rows_per_table",
                  static_cast<double>(config_.rowsPerTable));
        rep_.fact("table_bytes",
                  static_cast<double>(config_.embeddingBytes()));
        rep_.fact("workers", static_cast<double>(workers_));
        std::cout << "inputs: " << config_.numTables << " tables x "
                  << config_.rowsPerTable << " rows x dim "
                  << config_.embeddingDim << " ("
                  << config_.embeddingBytes() / (1024 * 1024)
                  << " MiB), pool " << pool_.size() << " queries, batch "
                  << config_.batchSize << ", " << workers_
                  << " workers\n";
        if (opts_.trace)
            runTraced();
        else
            runEndToEnd(between);
    }

    /**
     * Repeat the set-up until `total` have been timed (each torn down
     * before the next) and return the median. The repeats run after the
     * measurements because freeing a multi-GB model can disturb the next
     * few seconds (on a virtual machine the guest returns the pages to
     * the host).
     */
    double timeSetups(int total)
    {
        while (static_cast<int>(setupTimes_.size()) < total) {
            dep_.reset();
            dep_ = deploy();
            logSetup();
        }
        dep_.reset();
        return median(setupTimes_);
    }

  private:
    // -- set-up -------------------------------------------------------

    /** Model build, planning, stack build and executor start. */
    std::unique_ptr<Deployment> deploy()
    {
        auto d = std::make_unique<Deployment>();
        std::int64_t t = nowNs();
        d->dlrm = std::make_shared<erec::model::Dlrm>(config_);
        d->modelBuildS = secondsSince(t);

        t = nowNs();
        const auto planner =
            erec::core::Planner::forPlatform(config_,
                                             erec::hw::cpuOnlyNode());
        const auto plan =
            planner.planElasticRec({erec::sim::cdfFor(config_)});
        for (const auto *s : plan.tableShards(0))
            d->boundaries.push_back(s->endRow);
        d->planS = secondsSince(t);

        t = nowNs();
        std::vector<erec::serving::TablePlan> plans;
        for (std::uint32_t tb = 0; tb < config_.numTables; ++tb)
            plans.push_back({d->boundaries, perms_[tb]});
        d->stack = erec::serving::buildElasticRecStack(d->dlrm,
                                                       std::move(plans));
        d->stackBuildS = secondsSince(t);

        t = nowNs();
        erec::runtime::ExecutorOptions eo;
        eo.workers = workers_;
        d->executor = std::make_shared<erec::runtime::Executor>(eo);
        d->stack.frontend->attachExecutor(d->executor);
        d->dispatcher = std::make_unique<erec::serving::QueryDispatcher>(
            [this](const erec::workload::Query &q) { return serveReal(q); },
            d->executor);
        d->executorStartS = secondsSince(t);
        return d;
    }

    void logSetup()
    {
        setupTimes_.push_back(dep_->totalS());
        std::printf("setup %zu: %.3f s (model %.3f, plan %.3f, stack %.3f, "
                    "executor %.4f)\n",
                    setupTimes_.size(), dep_->totalS(), dep_->modelBuildS,
                    dep_->planS, dep_->stackBuildS, dep_->executorStartS);
    }

    /** The deployment the measurements use. */
    void setUpSystem()
    {
        dep_ = deploy();
        logSetup();
        std::cout << "plan: " << dep_->boundaries.size()
                  << " shards per table, boundaries";
        for (const auto b : dep_->boundaries)
            std::cout << " " << b;
        std::cout << "\n";
    }

    void reserve(std::size_t queries)
    {
        capacity_ = queries;
        recs_ = std::make_unique<QueryRec[]>(capacity_);
        preds_.assign(capacity_ * config_.batchSize, 0.0f);
    }

    Window makeWindow(const std::string &name, double rate, double seconds,
                      std::uint64_t tag)
    {
        Window w;
        w.name = name;
        w.rate = rate;
        w.seconds = seconds;
        w.firstId = nextId_;
        w.offsets =
            poissonSchedule(rate, seconds, mixSeed(opts_.seed, tag));
        nextId_ += w.offsets.size();
        ERC_CHECK(nextId_ <= capacity_, "query record capacity exceeded");
        return w;
    }

    // -- serve functions ----------------------------------------------

    /** Validate a prediction, keep it, and publish the completion. */
    void finish(const erec::workload::Query &q, QueryRec &r,
                const std::vector<float> &out, bool threw)
    {
        bool ok = !threw && out.size() == q.batchSize;
        for (std::size_t b = 0; ok && b < out.size(); ++b)
            ok = std::isfinite(out[b]) && out[b] > 0.0f && out[b] < 1.0f;
        if (ok)
            std::memcpy(predDst_ + q.id * config_.batchSize, out.data(),
                        out.size() * sizeof(float));
        r.state.store(ok ? kOk : kFailed, std::memory_order_release);
        completed_.fetch_add(1, std::memory_order_acq_rel);
    }

    /** The real stack: DenseShardServer::serve on the pooled lookups,
     *  with dense features synthesized from the fresh query id exactly
     *  as serve(const Query &) does. */
    std::vector<float> serveReal(const erec::workload::Query &q)
    {
        const int window = window_.load(std::memory_order_relaxed);
        const std::uint64_t a0 = erec::threadAllocCounts().allocs;
        if (t_lastExit.window == window)
            workerAllocs_.fetch_add(a0 - t_lastExit.allocs,
                                    std::memory_order_relaxed);
        QueryRec &r = recs_[q.id];
        r.start = nowNs();
        std::vector<float> out;
        std::exception_ptr err;
        try {
            const auto &src = pool_[q.id % pool_.size()];
            const auto dense =
                dep_->dlrm->syntheticDenseInput(q.id, q.batchSize);
            out = dep_->stack.frontend->serve(dense, src.lookups,
                                              q.batchSize, q.trace);
            if (inject_ > 0.0)
                spinFor(static_cast<std::int64_t>(
                    static_cast<double>(nowNs() - r.start) * inject_));
        } catch (...) {
            err = std::current_exception();
        }
        r.end = nowNs();
        servingAllocs_.fetch_add(erec::threadAllocCounts().allocs - a0,
                                 std::memory_order_relaxed);
        finish(q, r, out, err != nullptr);
        t_lastExit = {window, erec::threadAllocCounts().allocs};
        if (err)
            std::rethrow_exception(err);
        return out;
    }

    /** DenseShardServer::serve's steps, called one by one through the
     *  layers' public functions, each in a span. */
    std::vector<float> serveTraced(const erec::workload::Query &q)
    {
        QueryRec &r = recs_[q.id];
        r.start = nowNs();
        Span *sp = &spans_[q.id * spansPerQuery_];
        std::uint32_t n = 0;
        const auto record = [&](SpanKind kind, std::int64_t start,
                                std::uint32_t table = 0,
                                std::uint32_t shard = 0,
                                std::size_t rows = 0) {
            ERC_CHECK(n < spansPerQuery_, "span slots exhausted");
            sp[n++] = {start, nowNs(), static_cast<std::uint32_t>(rows),
                       static_cast<std::uint16_t>(table),
                       static_cast<std::uint16_t>(shard), kind};
        };
        std::vector<float> out;
        std::exception_ptr err;
        try {
            const auto &src = pool_[q.id % pool_.size()];
            const auto &dlrm = *dep_->dlrm;
            const auto &backend = *dep_->stack.kernelBackend;
            const std::size_t batch = q.batchSize;
            const std::uint32_t tables = config_.numTables;
            TraceScratch &s = t_trace;

            std::int64_t t = nowNs();
            const auto dense = dlrm.syntheticDenseInput(q.id, batch);
            record(kDense, t);
            t = nowNs();
            const auto bottom = dlrm.runBottom(dense, batch, backend);
            record(kBottom, t);

            s.buckets.resize(tables);
            s.jobs.clear();
            for (std::uint32_t tb = 0; tb < tables; ++tb) {
                t = nowNs();
                bucketizers_[tb].bucketizeInto(src.lookups[tb],
                                               &s.buckets[tb]);
                record(kBucketize, t, tb, 0,
                       src.lookups[tb].indices.size());
                for (std::uint32_t sh = 0; sh < s.buckets[tb].size(); ++sh)
                    if (!s.buckets[tb][sh].indices.empty())
                        s.jobs.emplace_back(tb, sh);
            }
            s.parts.resize(s.jobs.size());
            for (std::size_t j = 0; j < s.jobs.size(); ++j) {
                const auto [tb, sh] = s.jobs[j];
                t = nowNs();
                dep_->stack.shards[tb][sh]->gatherInto(s.buckets[tb][sh],
                                                       &s.parts[j]);
                record(kGather, t, tb, sh,
                       s.buckets[tb][sh].indices.size());
            }

            // Fixed (table, shard) order, as the frontend merges.
            t = nowNs();
            s.pooled.resize(tables);
            for (std::uint32_t tb = 0; tb < tables; ++tb)
                s.pooled[tb].assign(batch * config_.embeddingDim, 0.0f);
            for (std::size_t j = 0; j < s.jobs.size(); ++j) {
                auto &dst = s.pooled[s.jobs[j].first];
                for (std::size_t i = 0; i < dst.size(); ++i)
                    dst[i] += s.parts[j][i];
            }
            record(kMerge, t);

            t = nowNs();
            out = dlrm.interactAndPredict(bottom, s.pooled, batch, backend);
            record(kInteract, t);
        } catch (...) {
            err = std::current_exception();
        }
        r.end = nowNs();
        r.spans = n;
        finish(q, r, out, err != nullptr);
        if (err)
            std::rethrow_exception(err);
        return out;
    }

    // -- open-loop generator ------------------------------------------

    PhaseStats runPhase(erec::serving::QueryDispatcher &d, const Window &w)
    {
        const std::size_t n = w.offsets.size();
        const std::int64_t t0 = nowNs() + 2'000'000;
        for (std::size_t i = 0; i < n; ++i) {
            QueryRec &r = recs_[w.firstId + i];
            r.sched = t0 + w.offsets[i];
            r.sent = r.start = r.end = 0;
            r.spans = 0;
            r.state.store(kPending, std::memory_order_relaxed);
        }
        window_.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t done0 = completed_.load();
        for (std::size_t i = 0; i < n; ++i) {
            QueryRec &r = recs_[w.firstId + i];
            waitUntil(r.sched);
            r.sent = nowNs();
            erec::workload::Query q;
            q.id = w.firstId + i;
            q.batchSize = config_.batchSize;
            const std::uint64_t a0 = erec::threadAllocCounts().allocs;
            (void)d.submit(std::move(q));
            genAllocs_ += erec::threadAllocCounts().allocs - a0;
        }
        const std::int64_t end = t0 + static_cast<std::int64_t>(
                                          w.seconds * 1e9);
        waitUntil(end);
        PhaseStats st;
        st.outstandingEnd = n - (completed_.load() - done0);
        // Drain so phases do not overlap; a query still missing after
        // the grace period never completed and counts as failed.
        const std::int64_t deadline = nowNs() + 30'000'000'000;
        while (completed_.load() - done0 < n && nowNs() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));

        st.name = w.name;
        st.sent = n;
        st.offeredQps = static_cast<double>(n) / w.seconds;
        std::vector<double> late;
        std::int64_t last_end = t0;
        for (std::size_t i = 0; i < n; ++i) {
            const QueryRec &r = recs_[w.firstId + i];
            late.push_back(static_cast<double>(r.sent - r.sched) * 1e-6);
            if (r.state.load(std::memory_order_acquire) == kOk) {
                ++st.ok;
                last_end = std::max(last_end, r.end);
                st.latMs.push_back(static_cast<double>(r.end - r.sched) *
                                   1e-6);
            } else {
                ++st.failed;
                st.latMs.push_back(INFINITY);
            }
        }
        st.goodputQps = static_cast<double>(st.ok) /
                        std::max(1e-9, static_cast<double>(last_end - t0) *
                                           1e-9);
        st.p50 = quantile(st.latMs, 0.50);
        st.p95 = quantile(st.latMs, 0.95);
        st.p99 = quantile(st.latMs, 0.99);
        st.max = quantile(st.latMs, 1.0);
        st.lateP99Ms = quantile(late, 0.99);
        st.lateMaxMs = quantile(late, 1.0);
        // Little's law: more queries in the system than the rate can
        // clear within the latency limit means the backlog is growing.
        const double allowed =
            std::max(w.rate * spec_.limitMs * 1e-3,
                     2.0 * static_cast<double>(workers_));
        st.backlogGrew = static_cast<double>(st.outstandingEnd) > allowed;
        st.pass = st.failed == 0 && st.p95 <= spec_.limitMs &&
                  !st.backlogGrew;
        std::printf("  %-10s rate %8.1f/s  n %6zu  ok %6llu  fail %llu  "
                    "p50 %8.3f  p95 %8.3f  p99 %8.3f  max %8.3f ms  "
                    "late p99 %.3f max %.3f ms  backlog %llu%s  %s\n",
                    w.name.c_str(), w.rate, n,
                    static_cast<unsigned long long>(st.ok),
                    static_cast<unsigned long long>(st.failed), st.p50,
                    st.p95, st.p99, st.max, st.lateP99Ms, st.lateMaxMs,
                    static_cast<unsigned long long>(st.outstandingEnd),
                    st.backlogGrew ? " (growing)" : "",
                    st.pass ? "PASS" : "fail");
        return st;
    }

    /** Generator lateness bound: 20% of the latency limit. */
    double lateBoundMs() const { return 0.2 * spec_.limitMs; }

    /**
     * A low/high phase whose generator's p99 lateness exceeds the bound
     * is invalid: it is re-run once (same ids and schedule), and if
     * still invalid it is left out of the latency figures.
     */
    PhaseStats runValidPhase(erec::serving::QueryDispatcher &d,
                             const Window &w)
    {
        PhaseStats st;
        for (int attempt = 0; attempt < 2; ++attempt) {
            st = runPhase(d, w);
            rep_.attempted += st.sent;
            st.valid = st.lateP99Ms <= lateBoundMs();
            if (st.valid)
                break;
            std::printf("  %s invalid: generator p99 lateness %.3f ms > "
                        "%.3f ms bound\n",
                        w.name.c_str(), st.lateP99Ms, lateBoundMs());
        }
        return st;
    }

    std::vector<std::uint64_t> checkIds(const Window &w, std::size_t k)
    {
        std::vector<std::uint64_t> ids;
        const std::size_t n = w.offsets.size();
        for (std::size_t i = 0; i < k && n > 0; ++i)
            ids.push_back(w.firstId + i * n / k);
        return ids;
    }

    /** Reference predictions from the monolithic model (benchmark
     *  set-up; not timed). */
    void computeRefs(const std::vector<std::uint64_t> &ids)
    {
        const erec::serving::MonolithicServer mono(
            dep_->dlrm, dep_->stack.kernelBackend);
        std::vector<std::vector<float>> out(ids.size());
        parallelChunks(ids.size(), 4, [&](std::size_t i) {
            erec::workload::Query q;
            q.id = ids[i];
            q.batchSize = config_.batchSize;
            q.lookups = pool_[ids[i] % pool_.size()].lookups;
            out[i] = mono.serve(q);
        });
        for (std::size_t i = 0; i < ids.size(); ++i)
            refs_[ids[i]] = std::move(out[i]);
    }

    void checkRefs()
    {
        std::uint64_t mismatches = 0;
        for (const auto &[id, ref] : refs_) {
            if (recs_[id].state.load() != kOk)
                continue; // Already counted as a failed request.
            const float *got = &preds_[id * config_.batchSize];
            for (std::size_t b = 0; b < ref.size(); ++b) {
                if (std::fabs(got[b] - ref[b]) > 1e-5f) {
                    ++mismatches;
                    break;
                }
            }
        }
        rep_.fact("reference_checked", static_cast<double>(refs_.size()));
        rep_.fact("reference_mismatches", static_cast<double>(mismatches));
        std::printf("reference check: %zu queries vs MonolithicServer, "
                    "%llu mismatches\n",
                    refs_.size(),
                    static_cast<unsigned long long>(mismatches));
        if (mismatches > 0) {
            rep_.failed += mismatches;
            rep_.error("predictions differ from MonolithicServer by > 1e-5");
        }
    }

    void countFailures(const PhaseStats &st)
    {
        if (st.failed == 0)
            return;
        rep_.failed += st.failed;
        rep_.error(st.name + ": " + std::to_string(st.failed) +
                   " queries failed or never completed");
    }

    double rung(int k) const
    {
        return spec_.highQps * std::pow(kRungStep, k);
    }

    void reportPhase(const PhaseStats &st, const std::string &tag)
    {
        rep_.fact(tag + ".n", static_cast<double>(st.sent));
        rep_.fact(tag + ".ok", static_cast<double>(st.ok));
        rep_.fact(tag + ".failed", static_cast<double>(st.failed));
        rep_.fact(tag + ".p99_ms", st.p99);
        rep_.fact(tag + ".max_ms", st.max);
        rep_.fact(tag + ".late_p99_ms", st.lateP99Ms);
        rep_.fact(tag + ".offered_qps", st.offeredQps);
    }

    // -- the two run kinds ----------------------------------------------

    /**
     * Rounds of (low phase, high phase, goodput-ladder probes), with
     * `between(round)` called after each. Interleaving spreads every
     * metric's samples over the whole run, so the host's speed drift
     * averages out instead of landing on one metric. Each latency
     * figure is the median over rounds of that round's quantile, so a
     * round hit by a host stall does not set it.
     */
    void runEndToEnd(const std::function<void(int)> &between)
    {
        const double s = opts_.seconds;
        const double lowS = 0.05 * s, highS = 0.05 * s, probeS = 0.06 * s;
        const double max_probe_rate = rung(1 << kLadderProbes);
        reserve(static_cast<std::size_t>(
            (spec_.lowQps * (0.1 * s + kRounds * lowS) +
             spec_.highQps * kRounds * highS +
             max_probe_rate * kLadderProbes * probeS) *
                1.3 +
            256));
        // A long warm-up: the host is disturbed for a few seconds after
        // the multi-GB table fill.
        const Window warm = makeWindow("warmup", spec_.lowQps, 0.1 * s, 1);
        std::vector<Window> lows, highs;
        for (int r = 0; r < kRounds; ++r) {
            lows.push_back(makeWindow("low" + std::to_string(r),
                                      spec_.lowQps, lowS, 10 + r));
            highs.push_back(makeWindow("high" + std::to_string(r),
                                       spec_.highQps, highS, 20 + r));
        }
        auto ids = checkIds(lows[0], 16);
        for (const auto id : checkIds(highs[0], 16))
            ids.push_back(id);
        computeRefs(ids);
        predDst_ = preds_.data();

        auto &d = *dep_->dispatcher;
        runPhase(d, warm);
        // Goodput: bisect the 5%-apart rungs above (or, if the high rate
        // fails in round 0, below) the high rate for the highest rung
        // that meets the limit without failures or a growing backlog.
        int pass = 0, fail = 0;
        std::map<int, double> achieved;
        int probe = 0;
        std::vector<PhaseStats> lo, hi;
        for (int r = 0; r < kRounds; ++r) {
            lo.push_back(runValidPhase(d, lows[r]));
            hi.push_back(runValidPhase(d, highs[r]));
            countFailures(lo.back());
            countFailures(hi.back());
            if (r == 0) {
                pass = hi[0].pass ? 0 : -(1 << kLadderProbes);
                fail = hi[0].pass ? (1 << kLadderProbes) : 0;
                achieved[0] = hi[0].goodputQps;
            }
            for (; probe < (r + 1) * kLadderProbes / kRounds; ++probe) {
                const int mid = pass + (fail - pass) / 2;
                const Window w = makeWindow("rung" + std::to_string(mid),
                                            rung(mid), probeS, 30 + probe);
                const PhaseStats st = runPhase(d, w);
                rep_.attempted += st.sent;
                countFailures(st);
                achieved[mid] = st.goodputQps;
                (st.pass ? pass : fail) = mid;
            }
            between(r);
        }
        d.drain();
        // The highest passing rung's achieved rate: its successful
        // queries over the span from window start to last completion.
        const double goodput =
            achieved.count(pass) ? achieved[pass] : rung(pass);
        std::printf("goodput: rung %d (offered %.1f/s, achieved %.1f/s)\n",
                    pass, rung(pass), goodput);
        checkRefs();
        rep_.fact("goodput_rung", static_cast<double>(pass));
        rep_.fact("dispatcher_batch_mean", d.meanBatchSize());

        for (const auto &[tag, phases] :
             {std::pair{"low", &lo}, std::pair{"high", &hi}}) {
            std::vector<double> lat, p50s, p95s;
            double late = 0.0;
            int valid = 0;
            for (const auto &st : *phases) {
                if (!st.valid)
                    continue;
                ++valid;
                lat.insert(lat.end(), st.latMs.begin(), st.latMs.end());
                p50s.push_back(st.p50);
                p95s.push_back(st.p95);
                late = std::max(late, st.lateP99Ms);
            }
            const std::string t = tag;
            if (valid == 0)
                rep_.error(t + ": the generator ran late in every round");
            rep_.fact(t + ".valid_rounds", static_cast<double>(valid));
            rep_.metric("p50_ms." + t, median(p50s), "ms");
            rep_.metric("p95_ms." + t, median(p95s), "ms");
            rep_.fact("p50_ms." + t + ".pooled", quantile(lat, 0.50));
            rep_.fact("p95_ms." + t + ".pooled", quantile(lat, 0.95));
            rep_.fact("p50_ms." + t + ".n", static_cast<double>(lat.size()));
            rep_.fact("p95_ms." + t + ".n", static_cast<double>(lat.size()));
            rep_.fact(t + ".p99_ms", quantile(lat, 0.99));
            rep_.fact(t + ".max_ms", quantile(lat, 1.0));
            rep_.fact(t + ".late_p99_ms", late);
            std::printf("%-4s %d valid rounds, n %zu: median round p50 %.3f "
                        "p95 %.3f; pooled p50 %.3f p95 %.3f p99 %.3f max "
                        "%.3f ms (generator late p99 <= %.3f ms)\n",
                        tag, valid, lat.size(), median(p50s), median(p95s),
                        quantile(lat, 0.50), quantile(lat, 0.95),
                        quantile(lat, 0.99), quantile(lat, 1.0), late);
        }
        rep_.metric("goodput_qps", goodput, "1/s");
        rep_.fact("goodput_qps.n", static_cast<double>(kLadderProbes));
    }

    void runTraced();
    void writeSpans(const Window &w) const;

    const WorkloadSpec &spec_;
    const Options &opts_;
    Report &rep_;
    const erec::model::DlrmConfig config_;
    const std::size_t workers_;
    const double inject_;

    std::vector<std::vector<std::uint32_t>> perms_;
    std::vector<erec::workload::Query> pool_;
    std::vector<erec::core::Bucketizer> bucketizers_;
    std::map<std::uint64_t, std::vector<float>> refs_;

    std::unique_ptr<QueryRec[]> recs_;
    std::size_t capacity_ = 0;
    std::uint64_t nextId_ = 0;
    std::vector<float> preds_;
    std::vector<float> predsTraced_;
    float *predDst_ = nullptr;
    std::vector<Span> spans_;
    std::size_t spansPerQuery_ = 0;

    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> servingAllocs_{0};
    std::atomic<std::uint64_t> workerAllocs_{0};
    std::uint64_t genAllocs_ = 0;
    std::atomic<int> window_{0};
    std::vector<double> setupTimes_;

    /** Declared last: its dispatcher's workers call into the members
     *  above, so it is torn down first. */
    std::unique_ptr<Deployment> dep_;
};

/** What the untraced window measured per query, kept before the
 *  traced window reuses the same ids. */
struct UntracedQuery
{
    double e2eMs;
    double queueMs;
    double serveMs;
};

void
ServingBench::runTraced()
{
    const double s = opts_.seconds;
    reserve(static_cast<std::size_t>(
        spec_.lowQps * 0.06 * s * 1.3 + spec_.highQps * 0.15 * s * 1.3 + 256));
    const Window warm = makeWindow("warmup", spec_.lowQps, 0.03 * s, 1);
    const Window win = makeWindow("high", spec_.highQps, 0.15 * s, 20);
    const Window warm2 = makeWindow("warmup2", spec_.lowQps, 0.03 * s, 21);

    // The replica's bucketizers, built from the plan exactly as
    // buildElasticRecStack builds the frontend's.
    for (std::uint32_t tb = 0; tb < config_.numTables; ++tb)
        bucketizers_.emplace_back(
            dep_->boundaries,
            erec::embedding::FrequencyTracker::invertPermutation(perms_[tb]));
    const std::size_t shards = dep_->boundaries.size();
    // dense input, bottom MLP, merge, interaction + top MLP, and per
    // table one bucketize plus at most one gather per shard.
    spansPerQuery_ = 4 + config_.numTables * (1 + shards);
    spans_.assign(capacity_ * spansPerQuery_, Span{});
    predsTraced_.assign(capacity_ * config_.batchSize, 0.0f);
    predDst_ = preds_.data();

    // Untraced window: the real stack, each serve() call timed.
    auto &real = *dep_->dispatcher;
    runPhase(real, warm);
    servingAllocs_ = 0;
    workerAllocs_ = 0;
    genAllocs_ = 0;
    const std::uint64_t q0 = real.queriesServed();
    const std::uint64_t b0 = real.batchesServed();
    const PhaseStats u = runValidPhase(real, win);
    countFailures(u);
    const double batch_mean =
        static_cast<double>(real.queriesServed() - q0) /
        static_cast<double>(std::max<std::uint64_t>(
            1, real.batchesServed() - b0));
    const double n_u = static_cast<double>(std::max<std::uint64_t>(1, u.sent));
    const double runtime_allocs =
        static_cast<double>(genAllocs_ + workerAllocs_.load()) / n_u;
    const double serving_allocs =
        static_cast<double>(servingAllocs_.load()) / n_u;
    std::map<std::uint64_t, UntracedQuery> untraced;
    double busy_ns = 0.0;
    for (std::size_t i = 0; i < win.offsets.size(); ++i) {
        const std::uint64_t id = win.firstId + i;
        const QueryRec &r = recs_[id];
        if (r.state.load() != kOk)
            continue;
        untraced[id] = {static_cast<double>(r.end - r.sched) * 1e-6,
                        static_cast<double>(r.start - r.sent) * 1e-6,
                        static_cast<double>(r.end - r.start) * 1e-6};
        busy_ns += static_cast<double>(r.end - r.start);
    }
    real.drain();
    dep_->dispatcher.reset();

    // Traced window: the same queries on the same schedule, through the
    // span-recording replica in a fresh dispatcher on the same executor.
    erec::serving::QueryDispatcher traced(
        [this](const erec::workload::Query &q) { return serveTraced(q); },
        dep_->executor);
    runPhase(traced, warm2);
    predDst_ = predsTraced_.data();
    const PhaseStats t = runValidPhase(traced, win);
    countFailures(t);
    traced.drain();

    // Bit-identity of the replica against the real stack.
    std::uint64_t compared = 0;
    std::uint64_t differ = 0;
    for (const auto &[id, uq] : untraced) {
        if (recs_[id].state.load() != kOk)
            continue;
        ++compared;
        if (std::memcmp(&preds_[id * config_.batchSize],
                        &predsTraced_[id * config_.batchSize],
                        config_.batchSize * sizeof(float)) != 0)
            ++differ;
    }
    std::printf("traced replica: %llu queries compared, %llu differ "
                "bitwise from the real stack\n",
                static_cast<unsigned long long>(compared),
                static_cast<unsigned long long>(differ));
    rep_.fact("trace.compared", static_cast<double>(compared));
    if (differ > 0 || compared == 0) {
        rep_.failed += differ;
        rep_.error("traced predictions are not bit-identical to the "
                   "real stack's");
    }

    // Per-layer figures from the traced window's spans.
    std::vector<double> bucketize_us, hot_us, cold_us, hot_rows, cold_rows,
        bottom_us, interact_us, self_us, e2e_t, e2e_u, serve_u, queue_u;
    double hot_ns = 0, hot_n = 0, cold_ns = 0, cold_n = 0, gather_ns = 0,
           gather_rows = 0, e2e_sum = 0, unattributed_sum = 0;
    for (const auto &[id, uq] : untraced) {
        e2e_u.push_back(uq.e2eMs);
        serve_u.push_back(uq.serveMs);
        queue_u.push_back(uq.queueMs);
    }
    for (std::size_t i = 0; i < win.offsets.size(); ++i) {
        const std::uint64_t id = win.firstId + i;
        const QueryRec &r = recs_[id];
        if (r.state.load() != kOk)
            continue;
        double bz = 0, hot = 0, cold = 0, hr = 0, cr = 0, child = 0,
               covered = 0;
        const double serve_ns = static_cast<double>(r.end - r.start);
        const Span *sp = &spans_[id * spansPerQuery_];
        for (std::uint32_t k = 0; k < r.spans; ++k) {
            const double ns = static_cast<double>(sp[k].end - sp[k].start);
            covered += ns;
            if (sp[k].kind != kMerge)
                child += ns;
            switch (sp[k].kind) {
              case kBucketize:
                bz += ns;
                break;
              case kGather:
                gather_ns += ns;
                gather_rows += sp[k].rows;
                if (sp[k].shard == 0) {
                    hot += ns;
                    hr += sp[k].rows;
                }
                if (sp[k].shard == shards - 1) {
                    cold += ns;
                    cr += sp[k].rows;
                }
                break;
              case kBottom:
                bottom_us.push_back(ns * 1e-3);
                break;
              case kInteract:
                interact_us.push_back(ns * 1e-3);
                break;
              default:
                break;
            }
        }
        bucketize_us.push_back(bz * 1e-3);
        hot_us.push_back(hot * 1e-3);
        cold_us.push_back(cold * 1e-3);
        hot_rows.push_back(hr);
        cold_rows.push_back(cr);
        self_us.push_back((serve_ns - child) * 1e-3);
        hot_ns += hot;
        hot_n += hr;
        cold_ns += cold;
        cold_n += cr;
        const double e2e = static_cast<double>(r.end - r.sched);
        e2e_t.push_back(e2e * 1e-6);
        e2e_sum += e2e;
        unattributed_sum += e2e - static_cast<double>(r.start - r.sched) -
                            covered;
    }

    const double flops =
        static_cast<double>(config_.bottomMlp.flopsPerItem() +
                            config_.topMlp.flopsPerItem()) *
        config_.batchSize;
    const double mlp_ns =
        (median(bottom_us) + median(interact_us)) * 1e3;
    const double serve_p50_ms = median(serve_u);
    rep_.metric("runtime.queue_wait_ms.p50", median(queue_u), "ms");
    rep_.metric("runtime.queue_wait_ms.p95", quantile(queue_u, 0.95), "ms");
    rep_.metric("runtime.batch_mean", batch_mean, "count");
    rep_.metric("runtime.busy_pct",
                100.0 * busy_ns /
                    (static_cast<double>(workers_) * win.seconds * 1e9),
                "%");
    rep_.metric("runtime.allocs_per_query", runtime_allocs, "count");
    rep_.metric("serving.serve_ms.p50", serve_p50_ms, "ms");
    rep_.metric("serving.serve_ms.p95", quantile(serve_u, 0.95), "ms");
    rep_.metric("serving.self_us", median(self_us), "us");
    rep_.metric("serving.allocs_per_query", serving_allocs, "count");
    rep_.metric("serving.build_s", dep_->stackBuildS, "s");
    rep_.metric("core.bucketize_us", median(bucketize_us), "us");
    rep_.metric("core.plan_s", dep_->planS, "s");
    rep_.metric("embedding.gather_us.hot", median(hot_us), "us");
    rep_.metric("embedding.gather_us.cold", median(cold_us), "us");
    rep_.metric("embedding.rows.hot", median(hot_rows), "count");
    rep_.metric("embedding.rows.cold", median(cold_rows), "count");
    rep_.metric("embedding.ns_per_row.hot", hot_ns / std::max(1.0, hot_n),
                "ns");
    rep_.metric("embedding.ns_per_row.cold",
                cold_ns / std::max(1.0, cold_n), "ns");
    rep_.metric("embedding.gather_gbps",
                gather_rows * config_.embeddingDim * 4.0 /
                    std::max(1.0, gather_ns),
                "GB/s");
    rep_.metric("model.mlp_bottom_us", median(bottom_us), "us");
    rep_.metric("model.interact_top_us", median(interact_us), "us");
    rep_.metric("model.gemm_gflops", flops / mlp_ns, "GFLOP/s");
    rep_.metric("model.build_s", dep_->modelBuildS, "s");
    rep_.metric("trace.overhead_pct",
                100.0 * (mean(e2e_t) - mean(e2e_u)) / mean(e2e_u), "%");
    rep_.metric("trace.unattributed_pct",
                100.0 * unattributed_sum / std::max(1.0, e2e_sum), "%");
    rep_.metric("gen.late_ms.p99", std::max(u.lateP99Ms, t.lateP99Ms),
                "ms");
    reportPhase(u, "untraced");
    reportPhase(t, "traced");

    if (!opts_.spansOut.empty())
        writeSpans(win);
}

/**
 * Write the traced window's spans as CSV, times in us from the first
 * scheduled send. Per query: span 0 `query` (scheduled send -> ready),
 * 1 `gen/late` (scheduled -> actual send), 2 `runtime/queue` (send ->
 * serve entry), 3 `serving/serve`, then the layer spans under span 3.
 */
void
ServingBench::writeSpans(const Window &w) const
{
    std::ofstream out(opts_.spansOut);
    ERC_CHECK(out.good(), "cannot write " << opts_.spansOut);
    out << "query,span,name,start_us,end_us,parent,table,shard,rows\n";
    const std::int64_t base = recs_[w.firstId].sched;
    const auto us = [base](std::int64_t t) {
        return static_cast<double>(t - base) * 1e-3;
    };
    char line[256];
    for (std::size_t i = 0; i < w.offsets.size(); ++i) {
        const std::uint64_t id = w.firstId + i;
        const QueryRec &r = recs_[id];
        if (r.state.load() != kOk)
            continue;
        const auto emit = [&](int span, const char *name, std::int64_t a,
                              std::int64_t b, int parent, unsigned table,
                              unsigned shard, unsigned rows) {
            std::snprintf(line, sizeof(line),
                          "%llu,%d,%s,%.3f,%.3f,%d,%u,%u,%u\n",
                          static_cast<unsigned long long>(id), span, name,
                          us(a), us(b), parent, table, shard, rows);
            out << line;
        };
        emit(0, "query", r.sched, r.end, -1, 0, 0, 0);
        emit(1, "gen/late", r.sched, r.sent, 0, 0, 0, 0);
        emit(2, "runtime/queue", r.sent, r.start, 0, 0, 0, 0);
        emit(3, "serving/serve", r.start, r.end, 0, 0, 0, 0);
        const Span *sp = &spans_[id * spansPerQuery_];
        for (std::uint32_t k = 0; k < r.spans; ++k)
            emit(4 + static_cast<int>(k), kSpanNames[sp[k].kind],
                 sp[k].start, sp[k].end, 3, sp[k].table, sp[k].shard,
                 sp[k].rows);
    }
}

// ---------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------

/** Digest of the default seed's timed window (arrivals, completions,
 *  p95, scale events); a change to simulator behaviour changes it. */
constexpr const char *kSimDigest = "adb15e5cc13fcab5";

std::string
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Times sim::ClusterSimulation on the paper-scale RM1 ElasticRec plan
 * over the raised-cosine diurnal trace (100-500 QPS, 10 min period).
 * Warm-up carries the trace past its first peak, so the timed window
 * runs with every capacity high-water mark already set. The window is
 * run as `slices` consecutive run() calls, timed one by one; the
 * reported rate is the median slice's.
 */
class SimBench
{
  public:
    SimBench(const Options &o, int setup_reps, int slices, Report &rep)
        : opts_(o), slices_(slices), rep_(rep)
    {
        using namespace erec;
        const auto config = model::rm1();
        const auto node = hw::cpuOnlyNode();
        workload::TrafficPattern::DiurnalOptions shape;
        shape.troughQps = 100.0;
        shape.peakQps = 500.0;
        shape.period = 10 * units::kMinute;
        shape.step = units::kSecond;
        // The window runs from 90 s past the first peak (when the HPA
        // has stopped adding pods) down to the trough. Load only falls
        // there, so the HPA only removes pods: every capacity high-water
        // mark was set during warm-up, whereas a pod added in the window
        // allocates its queues on the query path.
        warm_ = shape.period / 2 + 90 * units::kSecond;
        measure_ = shape.period - warm_;
        shape.duration = warm_ + measure_ + shape.period;
        sim::SimOptions so;
        so.seed = mixSeed(o.seed, 300);
        so.sampling = sim::SamplingMode::EventTime;
        for (int r = 0; r < setup_reps; ++r) {
            sim_.reset();
            const std::int64_t t0 = nowNs();
            const auto planner = core::Planner::forPlatform(config, node);
            auto plan = planner.planElasticRec({sim::cdfFor(config)});
            sim_ = std::make_unique<sim::ClusterSimulation>(
                std::move(plan), node,
                workload::TrafficPattern::diurnal(shape), so);
            setups_.push_back(secondsSince(t0));
        }
    }

    double setupS() const { return median(setups_); }

    void warm()
    {
        const auto w = sim_->run(warm_);
        arrivals_ = w.arrivals;
        completed_ = w.completed;
        erec::resetAllocRegionStats();
    }

    /** Run and time slice k of the window. */
    void slice(int k)
    {
        const std::uint64_t ev0 = sim_->eventsExecuted();
        const std::int64_t t0 = nowNs();
        const auto res =
            sim_->run(warm_ + measure_ * (k + 1) / slices_);
        const double wall = secondsSince(t0);
        events_ += sim_->eventsExecuted() - ev0;
        wall_ += wall;
        winArrivals_ += res.arrivals;
        winCompleted_ += res.completed;
        lost_ += sim_->lostQueries();
        scaleEvents_ += res.scaleEvents;
        rates_.push_back(static_cast<double>(res.completed) / wall);
        std::snprintf(key_ + std::strlen(key_),
                      sizeof(key_) - std::strlen(key_), "%llu/%llu/%.3f/%llu;",
                      static_cast<unsigned long long>(res.arrivals),
                      static_cast<unsigned long long>(res.completed),
                      res.p95LatencyOverallMs,
                      static_cast<unsigned long long>(res.scaleEvents));
    }

    /** Output checks, then the simulator's metrics. */
    void finish()
    {
        std::uint64_t allocs = 0;
        for (const auto &st : erec::allocRegionStats())
            if (std::string(st.name) == "sim.query_path")
                allocs = st.allocs;
        const auto inflight =
            static_cast<std::int64_t>(arrivals_ + winArrivals_) -
            static_cast<std::int64_t>(completed_ + winCompleted_);
        const std::string digest = fnv1a(key_);
        const double per_query =
            static_cast<double>(events_) /
            static_cast<double>(std::max<std::uint64_t>(1, winCompleted_));
        std::printf("sim: %llu arrivals, %llu completed in %.3f s wall "
                    "(median slice %.0f sim-q/s), %.1f events/q, %lld in "
                    "flight, %llu lost, %llu query-path allocs, %llu scale "
                    "events, digest %s\n",
                    static_cast<unsigned long long>(winArrivals_),
                    static_cast<unsigned long long>(winCompleted_), wall_,
                    median(rates_), per_query,
                    static_cast<long long>(inflight),
                    static_cast<unsigned long long>(lost_),
                    static_cast<unsigned long long>(allocs),
                    static_cast<unsigned long long>(scaleEvents_),
                    digest.c_str());
        if (inflight < 0 || lost_ != 0)
            rep_.error("sim: arrivals neither completed nor in flight (" +
                       std::to_string(inflight) + " in flight, " +
                       std::to_string(lost_) + " lost)");
        if (allocs != 0)
            rep_.error("sim: " + std::to_string(allocs) +
                       " query-path allocations in the timed window");
        if (opts_.seed == kDefaultSeed && slices_ == kRounds &&
            digest != kSimDigest)
            rep_.error(std::string("sim: default-seed digest ") + digest +
                       " != expected " + kSimDigest);
        rep_.fact("sim.arrivals", static_cast<double>(winArrivals_));
        rep_.fact("sim.completed", static_cast<double>(winCompleted_));
        rep_.fact("sim.digest", digest);
        if (opts_.trace) {
            rep_.metric("sim.events_per_query", per_query, "count");
            rep_.metric("sim.ns_per_event",
                        wall_ * 1e9 /
                            static_cast<double>(
                                std::max<std::uint64_t>(1, events_)),
                        "ns");
            rep_.metric("cluster.scale_events",
                        static_cast<double>(scaleEvents_), "count");
        } else {
            rep_.metric("sim_qps", median(rates_), "1/s");
            rep_.fact("sim_qps.n", static_cast<double>(rates_.size()));
        }
    }

  private:
    const Options &opts_;
    const int slices_;
    Report &rep_;
    erec::SimTime warm_ = 0;
    erec::SimTime measure_ = 0;
    std::unique_ptr<erec::sim::ClusterSimulation> sim_;
    std::vector<double> setups_;
    std::vector<double> rates_;
    std::uint64_t arrivals_ = 0, completed_ = 0, winArrivals_ = 0,
                  winCompleted_ = 0, lost_ = 0, scaleEvents_ = 0,
                  events_ = 0;
    double wall_ = 0.0;
    char key_[512] = {};
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            ERC_CHECK(i + 1 < argc, a << " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = std::stoi(value()) != 0;
        else if (a == "--inject-delay-pct")
            o.injectDelayPct = std::stod(value());
        else if (a == "--spans")
            o.spansOut = value();
        else
            ERC_CHECK(false, "unknown flag " << a);
    }
    ERC_CHECK(o.seconds >= 1.0 && o.seconds <= 120.0,
              "--seconds must be in [1, 120]");
    ERC_CHECK(o.injectDelayPct >= 0.0, "--inject-delay-pct must be >= 0");
    return o;
}

int
run(int argc, char **argv)
{
    erec::setLogLevel(erec::LogLevel::Warn);
    const Options o = parseArgs(argc, argv);
    const WorkloadSpec *spec = nullptr;
    for (const auto &w : kWorkloads)
        if (o.workload == w.name)
            spec = &w;
    ERC_CHECK(spec != nullptr, "unknown workload '" << o.workload << "'");

    Report rep;
    rep.fact("workload", o.workload);
    rep.fact("seed", std::to_string(o.seed));
    rep.fact("llc_bytes", std::to_string(llcBytes()));
    rep.fact("kernel_backend", erec::kernels::defaultBackend().name());
    rep.fact("build_type", PERFBENCH_BUILD_TYPE);
    rep.fact("inject_delay_pct", o.injectDelayPct);
    std::cout << "workload " << o.workload << " seed " << o.seed
              << " seconds " << o.seconds << " trace " << o.trace
              << " backend " << erec::kernels::defaultBackend().name()
              << " llc " << llcBytes() << "\n";

    SimBench sim(o, o.trace ? 1 : kSetupReps, o.trace ? 1 : kRounds, rep);
    ServingBench bench(*spec, o, rep);
    if (o.trace) {
        bench.run([](int) {});
        sim.warm();
        sim.slice(0);
    } else {
        sim.warm();
        bench.run([&sim](int round) { sim.slice(round); });
    }
    sim.finish();
    if (!o.trace) {
        rep.metric("setup_s", bench.timeSetups(kSetupReps) + sim.setupS(),
                   "s");
        rep.metric("peak_rss_mib", peakRssMib(), "MiB");
        rep.fact("setup_s.n", static_cast<double>(kSetupReps));
    }
    printResult(rep);
    return 0;
}

} // namespace pb

int
main(int argc, char **argv)
{
    try {
        return pb::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
