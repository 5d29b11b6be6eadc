#pragma once

/**
 * @file
 * Discrete-event simulation core: a binary-heap queue over POD event
 * records with deterministic FIFO tie-breaking.
 *
 * Events carry a typed tag plus two integer payload words (an arena
 * index, a pod id, a deployment ordinal, ...) instead of a heap-bound
 * std::function closure, so scheduling and dispatch are allocation-free
 * on the steady path: the only allocation is the amortized growth of
 * the heap's backing vector. Execution is routed through an EventSink,
 * whose implementor interprets the tag — static dispatch over a
 * closed event taxonomy rather than dynamic dispatch over captured
 * lambdas.
 *
 * ## Ordering contract (FIFO tie-break)
 *
 * Events execute in nondecreasing time order. Events scheduled for the
 * *same* timestamp execute in the exact order their schedule() calls
 * were made (each record carries a monotone sequence number that breaks
 * heap ties), independent of the heap's internal layout or of how many
 * unrelated events were interleaved. This is load-bearing for
 * reproducibility: simulation results are a pure function of (plan,
 * options, seed), and the compat-tick fig19 golden test pins it.
 */

#include <cstdint>
#include <type_traits>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/units.h"

namespace erec::sim {

/**
 * Closed taxonomy of simulator events. kGeneric is reserved for unit
 * tests and sinks that interpret payloads themselves; the remaining
 * tags are the cluster simulation's event alphabet (see DESIGN.md §13).
 */
enum class EventType : std::uint16_t
{
    kGeneric = 0,
    /** A query arrives at the frontend (payload unused). */
    kArrival,
    /** A gather RPC reaches a sparse deployment
     *  (a = query arena slot, b = deployment ordinal). */
    kRpcArrive,
    /** One pod stage finished service
     *  (a = Pod pointer, b = stage index). */
    kStageDone,
    /** A fan-out leg's response lands at the frontend
     *  (a = query arena slot). */
    kComponentDone,
    /** A cold-started pod becomes Ready
     *  (a = pod id, b = deployment ordinal). */
    kPodReady,
    /** HPA reconcile tick (payload unused). */
    kHpaTick,
    /** Metrics/SLO sample tick (payload unused). */
    kSampleTick,
    /** Planned failure injection (a = failure index). */
    kFailure,
};

/** One scheduled event. POD by design: records live in the heap's
 *  backing vector and are moved wholesale during sift operations. */
struct EventRecord
{
    SimTime time = 0;
    /** Monotone schedule order; breaks same-time heap ties (FIFO). */
    std::uint64_t seq = 0;
    /** Payload words; meaning depends on type (see EventType). */
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    EventType type = EventType::kGeneric;
};
static_assert(std::is_trivially_copyable_v<EventRecord>,
              "event records must stay POD: the heap moves them in bulk "
              "and resume/replay tooling memcpys them");

/** Receiver of dispatched events. */
class EventSink
{
  public:
    virtual void onEvent(const EventRecord &event) = 0;

  protected:
    ~EventSink() = default;
};

class EventQueue
{
  public:
    EventQueue()
    {
        // Records are 40 bytes; reserving a few thousand up front costs
        // ~160 KB and keeps early heap doublings out of gated regions
        // (schedule() runs inside the zero-alloc query path).
        heap_.reserve(4096);
    }

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule an event at absolute time t (>= now). */
    ERC_HOT_PATH
    void schedule(SimTime t, EventType type, std::uint64_t a = 0,
                  std::uint64_t b = 0);

    /**
     * Schedule an event after a delay. Rejects negative delays and
     * delays that would overflow SimTime past the current clock —
     * silent wraparound would schedule "in the past" and corrupt the
     * heap order.
     */
    ERC_HOT_PATH
    void scheduleAfter(SimTime delay, EventType type, std::uint64_t a = 0,
                       std::uint64_t b = 0);

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /**
     * Execute the earliest event through the sink; returns false when
     * empty. Time-then-sequence order per the class contract.
     * event_queue_test steps the queue with it.
     */
    bool runOne(EventSink &sink);

    /**
     * Run all events with time <= end, then advance the clock to end.
     */
    void runUntil(SimTime end, EventSink &sink);

    /** Total events executed so far. */
    std::uint64_t executed() const { return executed_; }

  private:
    /** Pop the earliest record and advance the clock to it. */
    ERC_HOT_PATH
    EventRecord popTop();

    /** Min-heap order: earliest time first, schedule order on ties. */
    struct Later
    {
        bool
        operator()(const EventRecord &a, const EventRecord &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    SimTime now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<EventRecord> heap_;
};

} // namespace erec::sim
