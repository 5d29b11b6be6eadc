#include "elasticrec/runtime/thread_pool.h"

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"

namespace erec::runtime {

namespace {

/** Set for the lifetime of a worker thread's loop. */
thread_local bool t_onPoolWorker = false;

/** Charged by the gate around the worker loop's dequeue section. */
AllocRegion &
threadPoolRegion()
{
    static AllocRegion region("thread-pool-dequeue");
    return region;
}

} // namespace

ThreadPool::ThreadPool(std::size_t num_threads, ForkJoinBoard *board)
    : sleeper_(board, mutex_, cv_)
{
    ERC_CHECK(num_threads >= 1, "thread pool needs at least one worker");
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ERC_CHECK(!stopping_, "submit() on a stopping thread pool");
        // Feed side of the pool, not the per-query steady state: pump
        // loops are posted once at dispatcher construction.
        tasks_.push_back(std::move(task)); // ERC_HOT_PATH_ALLOW("pool feed; steady serving posts long-lived pumps once, not per-query tasks")
    }
    cv_.notify_one();
}

std::size_t
ThreadPool::queueDepth() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.size();
}

std::size_t
ThreadPool::busyWorkers() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return busy_;
}

std::uint64_t
ThreadPool::tasksExecuted() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
}

bool
ThreadPool::onWorkerThread()
{
    return t_onPoolWorker;
}

// The unlock-run-relock shape below is the classic false positive of
// the static analysis, hence the escape hatch; TSan covers the real
// interleavings in tests/thread_pool_test.cpp.
void
ThreadPool::workerLoop() ERC_NO_THREAD_SAFETY_ANALYSIS
{
    t_onPoolWorker = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (tasks_.empty() && !stopping_) {
            if (sleeper_.idleWait(lock)) {
                // No task queued: run one fork-join index, then look
                // at the task queue again.
                lock.unlock();
                sleeper_.board()->helpOne();
                lock.lock();
            }
            continue;
        }
        if (tasks_.empty())
            return; // Stopping and fully drained.
        std::function<void()> task;
        {
            // Steady-state dequeue: moving the task off the deque must
            // not allocate (the AllocGate proves it at test time).
            const AllocGate gate(threadPoolRegion());
            task = std::move(tasks_.front());
            tasks_.pop_front();
            ++busy_;
        }
        lock.unlock();
        task();
        lock.lock();
        --busy_;
        ++executed_;
    }
}

} // namespace erec::runtime
