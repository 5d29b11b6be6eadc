#pragma once

/**
 * @file
 * Request front door of a concurrently-served shard: clients submit
 * queries and get futures back; one pump thread per executor worker
 * pops one query at a time off a bounded runtime::BatchQueue and
 * serves it through the wrapped serve function (a DenseShardServer,
 * MonolithicServer, or any other callable). One FIFO queue served by
 * one pump per worker is the real-stack shape of the simulator's pods:
 * a query waits only for the queries ahead of it, then runs on the
 * next free pump. Each dispatcher owns its pump threads (a
 * runtime::WorkerThreads), so dispatchers that share one executor
 * never wait for each other's threads.
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
#include <optional>
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
     *        several pumps; it must be thread-safe.
     * @param executor Supplies the pump count (its workers) and the
     *        fork-join board idle pumps help on.
     * @param recorder Optional flight recorder: when set and enabled,
     *        submit() samples queries deterministically (every Nth)
     *        and the dispatcher emits the causal span skeleton —
     *        serving/query root, serving/queue wait, serving/serve.
     *        The sampled TraceContext rides in Query::trace so shard
     *        servers append their own child spans.
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
     * Stop accepting queries, wait until everything queued has been
     * served and join the pumps; an exception that escaped a pump loop
     * is rethrown here. Idempotent; also run by the destructor.
     */
    void drain();

    std::uint64_t queriesServed() const;

    /** Kept for perfbench, which reads them until ROADMAP item 2:
     *  every pop serves one query, so this equals queriesServed(). */
    std::uint64_t batchesServed() const { return queriesServed(); }

    /** Kept for perfbench: 1.0 once a query was served, else 0.0. */
    double meanBatchSize() const
    {
        return queriesServed() == 0 ? 0.0 : 1.0;
    }

    /**
     * Publish queue depth and the served-query counter into a
     * registry. Single-threaded, like Executor::publishStats.
     */
    void publishStats(obs::Registry &registry,
                      const obs::Labels &labels = {}) const;

    /** Child slots of the serving/query root span (see DESIGN.md
     *  section 12): slot 0 = queue wait, slot 1 = serve. */
    static constexpr unsigned kQueueSlot = 0;
    static constexpr unsigned kServeSlot = 1;

    /** Queued queries past which submit() blocks (backpressure). */
    static constexpr std::size_t kQueueCapacity = 1024;

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
    /** One pump per executor worker; empty in serial mode. Declared
     *  after queue_, which the pumps pop from. */
    std::optional<runtime::WorkerThreads> pumps_;
    std::atomic<bool> drained_{false};

    std::atomic<std::uint64_t> queriesServed_{0};
};

} // namespace erec::serving
