#pragma once

/**
 * @file
 * Concurrent serving executor: the facade the serving layer runs on.
 * An Executor carries the worker count of one shard (its CPU request)
 * and the fork-join board its threads share, and publishes its
 * statistics into an obs::Registry. It starts no thread itself: each
 * QueryDispatcher on it runs one pump thread per worker through
 * WorkerThreads, the one kind of serving thread.
 *
 * Determinism contract:
 *  - workers == 0 ("serial mode"): the dispatcher serves inline on the
 *    caller's thread and parallelFor() is a plain loop. Every byte of
 *    output is identical to the pre-executor code path, which is what
 *    the byte-determinism tests pin.
 *  - workers > 0: queries run concurrently, but consumers that need
 *    reproducible floats keep them by construction — the serving layer
 *    computes per-(table, shard) partials in per-table jobs and merges
 *    them in fixed (table, shard) order, so per-query outputs stay
 *    bit-identical to serial mode. Only cross-query interleaving (stat
 *    counter ordering, which thread served or helped) is
 *    scheduling-dependent.
 *  - Causal tracing inherits both halves: span ids are slot-derived
 *    from TraceContext (never from a counter) and sampling follows
 *    submission order, so the canonical span forest of a traced run
 *    is byte-identical between serial and concurrent mode, whichever
 *    thread ran an index and recorded its spans.
 *
 * Nesting: parallelFor() is one fork-join path for every caller. It
 * publishes the call on the executor's ForkJoinBoard and the caller
 * works through the indices itself; dispatcher pumps waiting for a
 * query and other callers waiting in their own join claim the rest. A
 * call from a pump (serving a query by fanning out per-table jobs)
 * therefore cannot deadlock, and an external thread may call it while
 * every pump serves a query: with nobody idle it runs inline.
 */

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "elasticrec/obs/metric.h"
#include "elasticrec/runtime/fork_join.h"

namespace erec::runtime {

/** All executor knobs in one place (serving passes these through). */
struct ExecutorOptions
{
    /** Worker threads; 0 selects the deterministic serial mode. */
    std::size_t workers = 0;
};

/** Point-in-time executor statistics (all snapshots). */
struct ExecutorStats
{
    std::size_t workers = 0;
    /** parallelFor indices run by a thread other than their caller. */
    std::uint64_t helpedItems = 0;
};

class Executor
{
  public:
    explicit Executor(ExecutorOptions options = {}) : opts_(options) {}

    /** True in serial mode (no worker threads; everything inline). */
    bool serial() const { return opts_.workers == 0; }

    std::size_t workers() const { return opts_.workers; }

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

    /** Snapshot of the worker count and the helped-index counter. */
    ExecutorStats stats() const;

    /**
     * Publish the stats() snapshot as labelled gauges
     * (erec_executor_workers / _helped_items). Call from one thread at
     * a time — obs::Registry handles are not internally synchronized.
     */
    void publishStats(obs::Registry &registry,
                      const obs::Labels &labels = {}) const;

    /** The fork-join board idle threads claim parallelFor indices
     *  from; a QueryDispatcher's queue registers its pumps on it. */
    ForkJoinBoard &board() { return board_; }

  private:
    ExecutorOptions opts_;
    ForkJoinBoard board_;
};

/**
 * A fixed set of threads that each run one loop to its end: the only
 * place in the library that constructs std::thread (lint rule
 * `raw-thread`), so every serving thread is one of some executor's
 * workers — a QueryDispatcher owns one, running a pump loop per worker
 * of its executor. An exception that escapes a loop is kept and
 * rethrown by join(), so it reaches the thread that waits for the
 * loops instead of terminating the process.
 */
class WorkerThreads
{
  public:
    /** Start n threads (n may be 0), each running loop() once. */
    WorkerThreads(std::size_t n, const std::function<void()> &loop);

    /** Joins every thread; an exception join() did not rethrow is
     *  logged as an error. */
    ~WorkerThreads();

    WorkerThreads(const WorkerThreads &) = delete;
    WorkerThreads &operator=(const WorkerThreads &) = delete;

    /**
     * Wait until every loop has returned, then rethrow the first
     * exception (in thread order) that escaped a loop and was not
     * rethrown before.
     */
    void join();

  private:
    std::vector<std::thread> threads_;
    /** errors_[i] is written by thread i alone and read only after
     *  that thread was joined. */
    std::vector<std::exception_ptr> errors_;
};

} // namespace erec::runtime
