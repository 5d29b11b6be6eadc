#pragma once

/**
 * @file
 * Assembles flat SpanEvents — drained from a FlightRecorder, recorded
 * by the simulator, or read back from a `_traces.jsonl` file — into
 * per-trace hierarchical span trees, and serializes them into a
 * *canonical text* form used by the determinism gate: structure, span
 * names, slot-derived span ids and deterministic args only — no
 * wall-clock timestamps. Two runs of the same workload must produce
 * byte-identical canonical forests whether the dispatcher runs serial
 * (`workers=0`) or concurrent (`workers=4`); tests and the bench
 * assert exactly that.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "elasticrec/obs/flight_recorder.h"

namespace erec::obs {

/** One span with its children, indices into SpanTree::nodes. */
struct SpanNode
{
    SpanEvent event;
    std::vector<std::size_t> children;
};

/** The assembled tree of one trace (one sampled query). */
struct SpanTree
{
    std::uint64_t traceId = 0;
    /** Index of the kRootSpanId node in `nodes` (0 when the root span
     *  was never recorded; see complete()). */
    std::size_t root = 0;
    /** Nodes sorted by span id (deterministic, slot-ordered). */
    std::vector<SpanNode> nodes;

    /** True when the root span (kRootSpanId) was recorded: the trace
     *  closed. A tree without one is lost or still in flight. */
    bool complete() const
    {
        return !nodes.empty() &&
               nodes[root].event.spanId == kRootSpanId;
    }
};

/**
 * Group events by trace id and wire up parent/child edges. Orphan
 * spans (parent id never recorded, e.g. after ring overflow) attach
 * under the root. Trees come back sorted by trace id; nodes and child
 * lists by span id — both orderings are scheduling-independent.
 */
std::vector<SpanTree> buildSpanTrees(std::vector<SpanEvent> events);

/** Canonical text of one tree: indented `name [#arg]` lines in span-id
 *  order, no timestamps. */
std::string canonicalTreeText(const SpanTree &tree);

/**
 * Canonical text of a whole run: one canonicalTreeText block per
 * trace in trace-id (submission) order. tracing_serving_test compares
 * it byte for byte across worker counts.
 */
std::string canonicalForestText(const std::vector<SpanTree> &trees);

} // namespace erec::obs
