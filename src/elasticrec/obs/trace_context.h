#pragma once

/**
 * @file
 * POD causal-trace context propagated across every RPC and runtime
 * boundary: `serving::QueryDispatcher` -> its `runtime::BatchQueue`
 * job (one query per job) -> shard servers, and `sim::Pod` work items
 * in the simulator. It is the stand-in for the W3C `traceparent`
 * header the paper's Linkerd mesh would inject on every hop.
 *
 * The context is 16 bytes of plain data so it can be copied into queue
 * jobs with no allocation. The simulator's modeled RPC wire sizes do
 * not count it, so simulated timing is identical traced or not.
 *
 * Child span ids are derived *structurally* rather than drawn from a
 * counter: `child(slot)` packs the slot index into the low byte of a
 * shifted parent id. Two runs that execute the same query through the
 * same stages therefore assign identical span ids regardless of thread
 * interleaving — the property the `workers=0` vs `workers=4`
 * byte-identical span-tree gate relies on. The encoding supports 8
 * nesting levels of up to 255 children each, far beyond the 3-level
 * trees the serving and simulation paths produce.
 */

#include <cstdint>

namespace erec::obs {

/** Span id of the root span of every trace (child slots hang off it). */
inline constexpr std::uint64_t kRootSpanId = 1;

/** Structural parent of a child() derived span id (0 for the root). */
constexpr std::uint64_t
parentSpanId(std::uint64_t span_id)
{
    return span_id >> 8;
}

struct TraceContext
{
    /** 0 = query not sampled; recording is a no-op. */
    std::uint64_t traceId = 0;
    /** Id of the span this context is scoped to (parent of children
     *  derived via child()). */
    std::uint64_t spanId = 0;

    bool sampled() const { return traceId != 0; }

    /** Deterministic id of this span's `slot`-th child (slot < 255). */
    std::uint64_t childSpanId(unsigned slot) const
    {
        return (spanId << 8) | ((slot & 0xFFU) + 1);
    }

    /** Context scoped to the `slot`-th child span. */
    TraceContext child(unsigned slot) const
    {
        return {traceId, childSpanId(slot)};
    }
};

} // namespace erec::obs
