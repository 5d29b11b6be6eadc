#pragma once

/**
 * @file
 * Concurrent serving executor: the facade the serving layer runs on.
 * An Executor bundles a fixed-size ThreadPool with the batching knobs
 * its request queue(s) use, behind one options struct, and publishes
 * occupancy/queue-depth statistics into an obs::Registry.
 *
 * Determinism contract:
 *  - workers == 0 ("serial mode"): there is no pool; submit() runs the
 *    callable inline on the caller's thread and parallelFor() is a
 *    plain loop. Every byte of output is identical to the pre-executor
 *    code path, which is what the byte-determinism tests pin.
 *  - workers > 0: callables run concurrently, but consumers that need
 *    reproducible floats keep them by construction — the serving layer
 *    computes per-(table, shard) partials in per-table jobs and merges
 *    them in fixed (table, shard) order, so per-query outputs stay
 *    bit-identical to serial mode. Only cross-query interleaving (stat
 *    counter ordering, batch composition) is scheduling-dependent.
 *  - Causal tracing inherits both halves: span ids are slot-derived
 *    from TraceContext (never from a counter) and sampling follows
 *    submission order, so the canonical span forest of a traced run
 *    is byte-identical between serial and concurrent mode, whichever
 *    thread ran an index and recorded its spans.
 *
 * Nesting: parallelFor() is one fork-join path for every caller. It
 * publishes the call on the executor's ForkJoinBoard and the caller
 * works through the indices itself; pool workers idle in their task
 * wait, dispatcher pumps waiting for a query and other callers waiting
 * in their own join claim the rest. A call from a pool worker (a
 * query batch handler fanning out per-table jobs) therefore cannot
 * deadlock on its own pool, and an external thread may call it while
 * pump loops occupy every worker: with nobody idle it runs inline.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>

#include "elasticrec/obs/metric.h"
#include "elasticrec/runtime/fork_join.h"
#include "elasticrec/runtime/thread_pool.h"

namespace erec::runtime {

/** All executor knobs in one place (serving passes these through). */
struct ExecutorOptions
{
    /** Worker threads; 0 selects the deterministic serial mode. */
    std::size_t workers = 0;
    /** Largest coalesced request batch a worker serves at once. */
    std::size_t maxBatchSize = 8;
    /** How long a short batch lingers for more requests, microseconds. */
    std::uint64_t maxBatchDelayUs = 100;
    /** Bounded request-queue capacity (producer backpressure). */
    std::size_t queueCapacity = 1024;
};

/** Point-in-time executor statistics (all snapshots). */
struct ExecutorStats
{
    std::size_t workers = 0;
    std::size_t queueDepth = 0;
    std::size_t busyWorkers = 0;
    std::uint64_t tasksExecuted = 0;
    /** parallelFor indices run by a thread other than their caller. */
    std::uint64_t helpedItems = 0;
};

class Executor
{
  public:
    explicit Executor(ExecutorOptions options = {});

    /** True in serial mode (no pool; everything runs inline). */
    bool serial() const { return pool_ == nullptr; }

    std::size_t workers() const
    {
        return pool_ == nullptr ? 0 : pool_->numThreads();
    }

    const ExecutorOptions &options() const { return opts_; }

    /**
     * Run a callable: inline (already-ready future) in serial mode, on
     * the pool otherwise. Exceptions surface at future.get() in both
     * modes.
     */
    template <typename F>
    auto submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        if (pool_ != nullptr)
            return pool_->submit(std::forward<F>(fn));
        std::packaged_task<R()> task(std::forward<F>(fn));
        task();
        return task.get_future();
    }

    /**
     * Run body(0..n-1), fork-join, and return after every index
     * completed. Serial mode and n == 1 run inline; otherwise the
     * caller and idle threads share the indices through the board
     * (see "Nesting" above). A throwing body fails only this call: the
     * first exception is rethrown once every claimed index finished.
     * The body must only write disjoint state per index.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Snapshot of pool occupancy and task counters. */
    ExecutorStats stats() const;

    /**
     * Publish the stats() snapshot as labelled gauges
     * (erec_executor_workers / _queue_depth / _busy_workers /
     * _tasks_executed / _helped_items). Call from one thread at a time
     * — obs::Registry handles are not internally synchronized.
     */
    void publishStats(obs::Registry &registry,
                      const obs::Labels &labels = {}) const;

    /** The underlying pool; null in serial mode. */
    ThreadPool *pool() { return pool_.get(); }

    /** The fork-join board idle threads claim parallelFor indices
     *  from; a QueryDispatcher's queue registers its pumps on it. */
    ForkJoinBoard &board() { return board_; }

  private:
    ExecutorOptions opts_;
    /** Declared before pool_: the workers leave it before it dies. */
    ForkJoinBoard board_;
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace erec::runtime
