#pragma once

/**
 * @file
 * Convenience builder wiring a complete ElasticRec functional serving
 * stack: per-table ShardedTable views, one SparseShardServer per shard,
 * per-table Bucketizers, and the DenseShardServer front end.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "elasticrec/obs/metric.h"
#include "elasticrec/runtime/executor.h"
#include "elasticrec/serving/dense_shard_server.h"
#include "elasticrec/serving/query_dispatcher.h"

namespace erec::serving {

/**
 * How one embedding table is partitioned for serving. The builder
 * accepts either one plan shared by every table or one plan per table.
 */
struct TablePlan
{
    /** Partitioning points in hotness-sorted space. */
    std::vector<std::uint64_t> boundaries = {};
    /**
     * Hotness permutation (rank -> original ID). Leave empty when the
     * table is already hotness-sorted.
     */
    std::vector<std::uint32_t> sortPerm = {};
};

/** Knobs of buildElasticRecStack beyond the per-table plans. */
struct StackOptions
{
    /**
     * When set, the builder registers per-shard size gauges
     * (erec_shard_rows / erec_shard_bytes) and publishStats() becomes
     * available on the stack.
     */
    std::shared_ptr<obs::Registry> observability = {};
    /**
     * When set, the stack gets a QueryDispatcher that runs one pump
     * thread per executor worker, so queries can be submitted
     * concurrently (stack.submit), and each query's bottom MLP and
     * per-table jobs fan out over the pumps with no query to serve.
     * A serial executor (workers == 0) keeps everything inline and
     * byte-identical to the executor-less path.
     */
    std::shared_ptr<runtime::Executor> executor = {};
    /**
     * Causal tracing: sample every Nth submitted query into the
     * flight recorder (0 disables tracing entirely). When > 0 the
     * builder creates a FlightRecorder, attaches it to the frontend
     * and every sparse shard server, and hands it to the dispatcher,
     * which starts trace contexts at submit(). Drain the recorder via
     * ElasticRecStack::recorder after serving to build span trees.
     */
    std::uint64_t traceSampleEvery = 0;
    /** Per-thread span ring capacity when tracing is on. */
    std::size_t traceRingCapacity = 4096;
};

/** A fully wired in-process ElasticRec deployment. */
struct ElasticRecStack
{
    std::shared_ptr<DenseShardServer> frontend;
    std::vector<std::shared_ptr<const embedding::ShardedTable>> tables;
    std::vector<std::vector<std::shared_ptr<SparseShardServer>>> shards;
    /** Registry from StackOptions; null when none was supplied. */
    std::shared_ptr<obs::Registry> observability = {};
    /** Executor from StackOptions; null when none was supplied. */
    std::shared_ptr<runtime::Executor> executor = {};
    /** Request front door (one FIFO queue, one pump per worker);
     *  non-null iff an executor was supplied. */
    std::shared_ptr<QueryDispatcher> dispatcher = {};
    /** The kernel backend every shard gather and MLP GEMM executes on:
     *  kernels::defaultBackend(), which ERC_KERNEL_BACKEND selects
     *  (never null). perfbench reads it until ROADMAP item 2. */
    const kernels::KernelBackend *kernelBackend = nullptr;
    /** Flight recorder; non-null iff traceSampleEvery > 0. */
    std::shared_ptr<obs::FlightRecorder> recorder = {};

    /**
     * Submit one query through the dispatcher (requires
     * StackOptions::executor). Concurrency-safe; blocks on a full
     * request queue.
     */
    std::future<std::vector<float>> submit(workload::Query query) const;

    /**
     * Snapshot serving counters (frontend queries served, per-shard
     * rows gathered, executor occupancy, dispatcher queue stats and,
     * with a recorder, the spans it dropped) into the registry. No-op
     * without one.
     */
    void publishStats() const;
};

/**
 * Build the stack.
 *
 * @param dlrm The model (provides tables and dense layers).
 * @param plans One TablePlan shared by all tables, or one per table.
 * @param options See StackOptions.
 */
ElasticRecStack buildElasticRecStack(
    std::shared_ptr<const model::Dlrm> dlrm,
    std::vector<TablePlan> plans, StackOptions options = {});

} // namespace erec::serving
