#pragma once

/**
 * @file
 * Hot-path-safe span recording: the flight recorder every serving
 * thread writes into and a collector drains off the steady path.
 *
 * Design (mirrors in-process tracers like Perfetto's TrackEvent):
 *
 *  - Each producer thread owns a fixed-capacity SPSC ring of POD
 *    SpanEvent records. Producers publish with a single release store;
 *    the (single) collector consumes with acquire loads. No locks, no
 *    allocation, no syscalls on the record path — `ERC_HOT_PATH`
 *    clean, and safe to call inside an AllocGate.
 *  - A full ring *drops* the event and bumps a per-ring counter
 *    instead of blocking or growing: tracing must never add
 *    backpressure to serving.
 *  - Ring registration (first record on a thread, or an explicit
 *    registerThisThread() at worker startup) is the only slow path: it
 *    takes a mutex and allocates the ring. Pump workers pre-register
 *    before entering their AllocGate'd steady loop so the gate never
 *    observes the registration allocation.
 *  - Sampling is deterministic every-Nth in submission order (no RNG,
 *    no clocks), and span ids are derived structurally from
 *    TraceContext slots, so serial (`workers=0`) and concurrent runs
 *    build bit-identical span trees for every sampled query.
 *
 * Timestamps are microseconds on std::chrono::steady_clock relative
 * to the recorder's construction: monotonic, comparable across
 * threads, and small enough for the Chrome trace-event `ts` field.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/thread_annotations.h"
#include "elasticrec/obs/span_name.h"
#include "elasticrec/obs/trace_context.h"

namespace erec::obs {

/** Fixed-size POD trace record of one completed span, [startUs,
 *  endUs] under (traceId, spanId); the only thing rings ever store. */
struct SpanEvent
{
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentId = 0;
    std::int64_t startUs = 0;
    std::int64_t endUs = 0;
    /** Optional detail word (e.g. table<<16|shard). */
    std::uint64_t arg = 0;
    NameId name = kInvalidNameId;
};

static_assert(std::is_trivially_copyable_v<SpanEvent>,
              "SpanEvent must stay a POD: rings copy it raw");

/**
 * Single-producer single-consumer ring of SpanEvents. The owning
 * thread pushes; the collector drains. Capacity is fixed at
 * construction (rounded up to a power of two); overflow drops.
 */
class SpanRing
{
  public:
    explicit SpanRing(std::size_t capacity);

    /** Producer side: publish one event, or count a drop when full.
     *  Wait-free, allocation-free. */
    ERC_HOT_PATH
    bool tryPush(const SpanEvent &event) noexcept;

    /** Consumer side: append all published events to `*out` and free
     *  their slots. Returns the number drained. */
    std::size_t drainInto(std::vector<SpanEvent> *out);

    /** Events dropped because the ring was full. */
    std::uint64_t drops() const
    {
        return drops_.load(std::memory_order_relaxed);
    }

    std::size_t capacity() const { return slots_.size(); }

  private:
    std::vector<SpanEvent> slots_;
    std::uint64_t mask_;
    /** Producer-owned write cursor; consumer acquire-reads it. */
    alignas(64) std::atomic<std::uint64_t> head_{0};
    /** Consumer-owned read cursor; producer acquire-reads it. */
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    alignas(64) std::atomic<std::uint64_t> drops_{0};
};

struct FlightRecorderOptions
{
    /** Trace one query in every `sampleEvery` submissions; 0 disables
     *  recording entirely (every call becomes a cheap no-op). */
    std::uint32_t sampleEvery = 0;
    /** Per-thread ring capacity in events (rounded up to 2^k). */
    std::size_t ringCapacity = 4096;
};

class FlightRecorder
{
  public:
    explicit FlightRecorder(const FlightRecorderOptions &options = {});

    bool enabled() const { return options_.sampleEvery != 0; }
    std::uint32_t sampleEvery() const { return options_.sampleEvery; }

    /**
     * Account one query submission; returns a root context
     * (traceId = submission index + 1, spanId = kRootSpanId) when this
     * submission is sampled, an unsampled context otherwise.
     * Deterministic in submission order.
     */
    TraceContext maybeStartTrace();

    /**
     * Pre-create the calling thread's ring. Worker threads call this
     * once at startup, before any AllocGate, so the steady-path
     * record() never hits the registration slow path.
     */
    void registerThisThread();

    /** Record one event into the calling thread's ring (drop if
     *  full). Unsampled contexts must be filtered by the caller. */
    ERC_HOT_PATH
    void record(const SpanEvent &event) noexcept;

    /** Convenience: record a completed span scoped to `ctx`. */
    ERC_HOT_PATH
    void recordSpan(const TraceContext &ctx, NameId name,
                    std::int64_t start_us, std::int64_t end_us,
                    std::uint64_t arg = 0) noexcept
    {
        SpanEvent e;
        e.traceId = ctx.traceId;
        e.spanId = ctx.spanId;
        e.parentId = parentSpanId(ctx.spanId);
        e.startUs = start_us;
        e.endUs = end_us;
        e.arg = arg;
        e.name = name;
        record(e);
    }

    /** Microseconds since recorder construction (steady clock). */
    ERC_HOT_PATH
    std::int64_t nowUs() const noexcept;

    /**
     * Collector side: move all published events out of every ring.
     * Single consumer; safe to run concurrently with producers.
     */
    std::vector<SpanEvent> drain();

    /** Total events dropped across all rings (overflow). */
    std::uint64_t droppedEvents() const;

    /** Submissions accounted by maybeStartTrace. */
    std::uint64_t submissions() const
    {
        return submitted_.load(std::memory_order_relaxed);
    }

  private:
    SpanRing *acquireRing();

    FlightRecorderOptions options_;
    /** Unique process-wide recorder id: thread-local ring caches are
     *  validated against it, so stale caches from a destroyed recorder
     *  can never alias a new one. */
    std::uint64_t id_;
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> submitted_{0};
    mutable std::mutex registryMu_;
    /** Keyed by a process-unique thread key (not std::thread::id, so
     *  obs stays free of <thread> per the raw-thread rule). */
    std::unordered_map<std::uint64_t, std::size_t>
        ringByThread_ ERC_GUARDED_BY(registryMu_);
    std::vector<std::unique_ptr<SpanRing>>
        rings_ ERC_GUARDED_BY(registryMu_);
};

} // namespace erec::obs
