#pragma once

/**
 * @file
 * Fixed-size worker thread pool: the only place in the library that is
 * allowed to construct std::thread (enforced by the `raw-thread` lint
 * rule). Every concurrent serving path funnels work through here so
 * thread counts stay an explicit, observable resource — the functional
 * analogue of the per-pod CPU requests the paper's Kubernetes setup
 * hands each microservice shard.
 *
 * Semantics:
 *  - submit() never drops work: the destructor drains every queued
 *    task before joining the workers.
 *  - submit() returns a std::future, so exceptions thrown by a task
 *    surface at future.get() instead of terminating a worker.
 *  - Given a ForkJoinBoard, a worker waiting for a task claims open
 *    parallelFor indices instead (a queued task always goes first), so
 *    fork-join calls use every worker no task occupies.
 *  - onWorkerThread() tells code whether it runs on a pool worker.
 *    Executor::parallelFor no longer branches on it: a worker's
 *    fork-join call publishes on the board like any other caller.
 */

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/thread_annotations.h"
#include "elasticrec/runtime/fork_join.h"

namespace erec::runtime {

class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; must be at least 1.
     * @param board When set, idle workers help its fork-join records;
     *        it must outlive the pool.
     */
    explicit ThreadPool(std::size_t num_threads,
                        ForkJoinBoard *board = nullptr);

    /** Drains all queued tasks, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a callable; its result (or exception) is delivered
     * through the returned future. Submitting after destruction has
     * begun is a caller bug (ConfigError).
     */
    template <typename F>
    auto submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        // One task handle per submission: steady-state serving submits
        // long-lived pump loops once, not per-query tasks.
        auto task = std::make_shared<std::packaged_task<R()>>( // ERC_HOT_PATH_ALLOW("one handle per submission; pumps are submitted once and parallelFor never submits")
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        post([task] { (*task)(); });
        return future;
    }

    std::size_t numThreads() const { return workers_.size(); }

    /** Tasks currently queued (excludes tasks being executed). */
    std::size_t queueDepth() const;

    /** Workers currently executing a task (pool occupancy). */
    std::size_t busyWorkers() const;

    /** Tasks completed since construction. */
    std::uint64_t tasksExecuted() const;

    /**
     * True when called from one of this process' pool workers (of any
     * pool). A worker that blocks — on a future, say — holds one of
     * the threads the work it waits for may need; code that must not
     * do that can check here first.
     */
    static bool onWorkerThread();

  private:
    /** Type-erased enqueue behind the template submit(). */
    void post(std::function<void()> task);

    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_ ERC_GUARDED_BY(mutex_);
    bool stopping_ ERC_GUARDED_BY(mutex_) = false;
    std::size_t busy_ ERC_GUARDED_BY(mutex_) = 0;
    std::uint64_t executed_ ERC_GUARDED_BY(mutex_) = 0;
    /** Idle workers wait here; registered on the board, if any. */
    ForkJoinBoard::Sleeper sleeper_;
    std::vector<std::thread> workers_;
};

} // namespace erec::runtime
