#include "elasticrec/serving/query_dispatcher.h"

#include <utility>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"

namespace erec::serving {

namespace {

/** Charged by the gate around the pump loop's queue pop. */
AllocRegion &
dispatcherPumpRegion()
{
    static AllocRegion region("dispatcher-pump");
    return region;
}

// Interned once at static-init time; hot-path records carry the ids.
const obs::NameId kQuerySpanName = obs::internSpanName("serving/query");
const obs::NameId kQueueSpanName = obs::internSpanName("serving/queue");
const obs::NameId kServeSpanName = obs::internSpanName("serving/serve");

} // namespace

QueryDispatcher::QueryDispatcher(
    ServeFn serve, std::shared_ptr<runtime::Executor> executor,
    std::shared_ptr<obs::FlightRecorder> recorder)
    : serve_(std::move(serve)), executor_(std::move(executor)),
      recorder_(std::move(recorder)),
      tracing_(recorder_ != nullptr && recorder_->enabled())
{
    ERC_CHECK(serve_ != nullptr, "null serve function");
    ERC_CHECK(executor_ != nullptr, "null executor");
    if (executor_->serial())
        return; // Inline mode: no queue, no pumps.
    queue_ = std::make_unique<runtime::BatchQueue<Job>>(
        runtime::BatchQueueOptions{kQueueCapacity}, &executor_->board());
    pumps_.emplace(executor_->workers(), [this] { pumpLoop(); });
}

QueryDispatcher::~QueryDispatcher()
{
    drain();
}

std::future<std::vector<float>>
QueryDispatcher::submit(workload::Query query)
{
    ERC_CHECK(!drained_.load(), "submit() on a drained dispatcher");
    Job job{std::move(query), {}, 0};
    if (tracing_) {
        // Deterministic every-Nth sampling in submission order: the
        // same queries are sampled whether the stack runs serial or
        // concurrent, which the byte-identical span-tree gate needs.
        job.query.trace = recorder_->maybeStartTrace();
        if (job.query.trace.sampled())
            job.submitUs = recorder_->nowUs();
    }
    auto future = job.result.get_future();
    if (queue_ == nullptr) {
        // Serial: serve inline on the caller's thread, byte-identical
        // to calling the serve function directly.
        serveJob(&job);
        return future;
    }
    const bool accepted = queue_->push(std::move(job));
    ERC_ASSERT(accepted, "open dispatcher queue rejected a query");
    return future;
}

void
QueryDispatcher::drain()
{
    if (drained_.exchange(true))
        return;
    if (queue_ == nullptr)
        return;
    queue_->close();
    pumps_->join();
}

std::uint64_t
QueryDispatcher::queriesServed() const
{
    return queriesServed_.load(std::memory_order_relaxed);
}

void
QueryDispatcher::publishStats(obs::Registry &registry,
                              const obs::Labels &labels) const
{
    registry
        .gauge("erec_serving_queries_served",
               "Queries served through the dispatcher.", labels)
        .set(static_cast<double>(queriesServed()));
    registry
        .gauge("erec_serving_queue_depth",
               "Queries waiting in the dispatcher's request queue.",
               labels)
        .set(queue_ == nullptr
                 ? 0.0
                 : static_cast<double>(queue_->depth()));
}

void
QueryDispatcher::serveJob(Job *job)
{
    const obs::TraceContext root = job->query.trace;
    std::int64_t serve_start = 0;
    if (root.sampled()) {
        // The queue wait ends where serving starts (at once in serial
        // mode). The serve function sees the serve-span context, so
        // shard servers hang their gather/MLP spans under
        // serving/serve.
        serve_start = recorder_->nowUs();
        recorder_->recordSpan(root.child(kQueueSlot), kQueueSpanName,
                              job->submitUs, serve_start);
        job->query.trace = root.child(kServeSlot);
    }
    try {
        job->result.set_value(serve_(job->query));
    } catch (...) {
        job->result.set_exception(std::current_exception());
    }
    queriesServed_.fetch_add(1, std::memory_order_relaxed);
    if (root.sampled()) {
        const std::int64_t end_us = recorder_->nowUs();
        recorder_->recordSpan(root.child(kServeSlot), kServeSpanName,
                              serve_start, end_us);
        recorder_->recordSpan(root, kQuerySpanName, job->submitUs,
                              end_us);
    }
}

void
QueryDispatcher::pumpLoop()
{
    // Pre-register this pump's span ring while startup
    // allocation is still fair game: the steady loop below records
    // into the ring without ever touching the registration slow path.
    if (tracing_)
        recorder_->registerThisThread();
    // One job slot per pump, reused for its whole lifetime.
    Job job;
    for (;;) {
        runtime::PopStatus status = runtime::PopStatus::Closed;
        {
            // The serve_ call stays outside the gate: model compute
            // owns its own allocation budget (see DESIGN.md section
            // 10); the dispatcher machinery itself must stay at zero.
            const AllocGate gate(dispatcherPumpRegion());
            status = queue_->pop(&job);
        }
        if (status == runtime::PopStatus::Closed)
            return; // Queue closed and drained.
        if (status == runtime::PopStatus::Help) {
            // No query queued, but another pump's query has open
            // indices: run one (serve work, so outside the gates).
            executor_->board().helpOne();
            continue;
        }
        serveJob(&job);
    }
}

} // namespace erec::serving
