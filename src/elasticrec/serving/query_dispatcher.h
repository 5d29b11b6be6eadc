#pragma once

/**
 * @file
 * Request front door of a concurrently-served shard: clients submit
 * queries and get futures back; pool workers pull *coalesced batches*
 * off a bounded runtime::BatchQueue and serve them through the
 * wrapped serve function (a DenseShardServer, MonolithicServer, or
 * any other callable). This is the piece that turns the executor's
 * worker threads into QPS — per-shard thread pools plus request
 * batching are where capacity-driven scale-out serving gets its
 * throughput.
 *
 * With a serial executor the dispatcher degrades to inline execution
 * on the caller's thread (byte-identical to calling serve directly),
 * so the determinism tests can pin the concurrent stack against the
 * pre-executor path.
 *
 * A pump with no query to serve is idle capacity: its queue registers
 * on the executor's ForkJoinBoard, so a pump waiting for a query
 * claims the open parallelFor indices of the queries other pumps are
 * serving (and pops any queued query first).
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/obs/flight_recorder.h"
#include "elasticrec/obs/metric.h"
#include "elasticrec/runtime/batch_queue.h"
#include "elasticrec/runtime/executor.h"
#include "elasticrec/workload/query_generator.h"

namespace erec::serving {

class QueryDispatcher
{
  public:
    using ServeFn =
        std::function<std::vector<float>(const workload::Query &)>;

    /**
     * @param serve Called once per query, possibly concurrently from
     *        several pool workers; it must be thread-safe.
     * @param executor Supplies the worker pool and the batching knobs
     *        (maxBatchSize / maxBatchDelayUs / queueCapacity).
     * @param recorder Optional flight recorder: when set and enabled,
     *        submit() samples queries deterministically (every Nth)
     *        and the dispatcher emits the causal span skeleton —
     *        serving/query root, serving/queue wait, serving/serve —
     *        plus one batch trace per coalesced batch with fan-in
     *        links to its sampled members. The sampled TraceContext
     *        rides in Query::trace so shard servers append their own
     *        child spans.
     */
    QueryDispatcher(ServeFn serve,
                    std::shared_ptr<runtime::Executor> executor,
                    std::shared_ptr<obs::FlightRecorder> recorder =
                        nullptr);

    /** Drains every queued query before returning. */
    ~QueryDispatcher();

    QueryDispatcher(const QueryDispatcher &) = delete;
    QueryDispatcher &operator=(const QueryDispatcher &) = delete;

    /**
     * Enqueue one query; the prediction (or the exception serve threw)
     * arrives through the future. Blocks while the request queue is at
     * capacity (backpressure). Serial executors serve inline.
     */
    ERC_HOT_PATH
    std::future<std::vector<float>> submit(workload::Query query);

    /**
     * Stop accepting queries and wait until everything queued has been
     * served. Idempotent; also run by the destructor.
     */
    void drain();

    std::uint64_t queriesServed() const;
    std::uint64_t batchesServed() const;

    /** histogram[k] counts served batches of size k+1 (capped at the
     *  executor's maxBatchSize). */
    std::vector<std::uint64_t> batchSizeHistogram() const;

    /** Mean coalesced batch size over all served batches (0: none). */
    double meanBatchSize() const;

    /**
     * Publish queue depth, served-query/batch counters and the
     * batch-size histogram (as an erec_serving_batches gauge family
     * labelled by batch_size) into a registry. Single-threaded, like
     * Executor::publishStats.
     */
    void publishStats(obs::Registry &registry,
                      const obs::Labels &labels = {}) const;

    /** Child slots of the serving/query root span (see DESIGN.md
     *  section 12): slot 0 = queue wait, slot 1 = serve. */
    static constexpr unsigned kQueueSlot = 0;
    static constexpr unsigned kServeSlot = 1;

  private:
    struct Job
    {
        workload::Query query;
        std::promise<std::vector<float>> result;
        /** Recorder timestamp of submit(); closes the queue span. */
        std::int64_t submitUs = 0;
    };

    void serveJob(Job *job);
    ERC_HOT_PATH
    void pumpLoop();

    ServeFn serve_;
    std::shared_ptr<runtime::Executor> executor_;
    std::shared_ptr<obs::FlightRecorder> recorder_;
    /** recorder_ set and sampling on; checked on every hot path. */
    bool tracing_ = false;
    std::unique_ptr<runtime::BatchQueue<Job>> queue_;
    std::vector<std::future<void>> pumps_;
    std::atomic<bool> drained_{false};

    std::atomic<std::uint64_t> queriesServed_{0};
    std::atomic<std::uint64_t> batchesServed_{0};
    /** batchHist_[k]: batches of size k+1; sized maxBatchSize. */
    std::vector<std::atomic<std::uint64_t>> batchHist_;
};

} // namespace erec::serving
