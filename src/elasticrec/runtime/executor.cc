#include "elasticrec/runtime/executor.h"

#include "elasticrec/common/error.h"

namespace erec::runtime {

Executor::Executor(ExecutorOptions options) : opts_(options)
{
    ERC_CHECK(opts_.queueCapacity >= 1, "queue capacity must be >= 1");
    if (opts_.workers > 0)
        pool_ = std::make_unique<ThreadPool>(opts_.workers, &board_);
}

void
Executor::parallelFor(std::size_t n,
                      const std::function<void(std::size_t)> &body)
{
    if (pool_ == nullptr || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    board_.parallelFor(n, body);
}

ExecutorStats
Executor::stats() const
{
    ExecutorStats s;
    if (pool_ != nullptr) {
        s.workers = pool_->numThreads();
        s.queueDepth = pool_->queueDepth();
        s.busyWorkers = pool_->busyWorkers();
        s.tasksExecuted = pool_->tasksExecuted();
    }
    s.helpedItems = board_.helpedItems();
    return s;
}

void
Executor::publishStats(obs::Registry &registry,
                       const obs::Labels &labels) const
{
    const ExecutorStats s = stats();
    registry
        .gauge("erec_executor_workers",
               "Worker threads of the serving executor (0 = serial).",
               labels)
        .set(static_cast<double>(s.workers));
    registry
        .gauge("erec_executor_queue_depth",
               "Tasks queued on the executor's pool right now.", labels)
        .set(static_cast<double>(s.queueDepth));
    registry
        .gauge("erec_executor_busy_workers",
               "Pool workers currently executing a task (occupancy).",
               labels)
        .set(static_cast<double>(s.busyWorkers));
    registry
        .gauge("erec_executor_tasks_executed",
               "Tasks completed by the executor's pool since start.",
               labels)
        .set(static_cast<double>(s.tasksExecuted));
    registry
        .gauge("erec_executor_helped_items",
               "parallelFor indices run by a thread other than their "
               "caller (idle workers, pumps and joining callers).",
               labels)
        .set(static_cast<double>(s.helpedItems));
}

} // namespace erec::runtime
