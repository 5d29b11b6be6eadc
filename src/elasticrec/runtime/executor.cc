#include "elasticrec/runtime/executor.h"

#include <utility>

#include "elasticrec/common/logging.h"

namespace erec::runtime {

void
Executor::parallelFor(std::size_t n,
                      const std::function<void(std::size_t)> &body)
{
    if (serial() || n <= 1) {
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
    s.workers = opts_.workers;
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
        .gauge("erec_executor_helped_items",
               "parallelFor indices run by a thread other than their "
               "caller (idle pumps and joining callers).",
               labels)
        .set(static_cast<double>(s.helpedItems));
}

WorkerThreads::WorkerThreads(std::size_t n,
                             const std::function<void()> &loop)
    : errors_(n)
{
    threads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        threads_.emplace_back([this, loop, i] {
            try {
                loop();
            } catch (...) {
                errors_[i] = std::current_exception();
            }
        });
}

WorkerThreads::~WorkerThreads()
{
    // join() rethrows one failure per call; one its owner never
    // collected is logged here rather than lost.
    for (;;) {
        try {
            join();
            return;
        } catch (const std::exception &e) {
            ERC_LOG_ERROR << "worker loop failed: " << e.what();
        } catch (...) {
            ERC_LOG_ERROR << "worker loop failed";
        }
    }
}

void
WorkerThreads::join()
{
    for (auto &t : threads_)
        if (t.joinable())
            t.join();
    for (auto &error : errors_)
        if (error != nullptr)
            std::rethrow_exception(std::exchange(error, nullptr));
}

} // namespace erec::runtime
