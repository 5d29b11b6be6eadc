#pragma once

/**
 * @file
 * Assembles flat SpanEvents — drained from a FlightRecorder, recorded
 * by the simulator, or read back from a `_traces.jsonl` file — into
 * per-trace hierarchical span trees, and serializes them into a
 * *canonical text* form used by the determinism gate: structure, span
 * names, slot-derived span ids and deterministic args only — no
 * wall-clock timestamps, no batch traces (batch composition depends on
 * thread timing). Two runs of the same workload must produce
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

/** The assembled tree of one trace (one sampled query or one batch). */
struct SpanTree
{
    std::uint64_t traceId = 0;
    /** Index of the kRootSpanId node in `nodes` (0 when the root span
     *  was never recorded; see complete()). */
    std::size_t root = 0;
    /** Nodes sorted by span id (deterministic, slot-ordered). */
    std::vector<SpanNode> nodes;
    /** Fan-in link events recorded under this trace. */
    std::vector<SpanEvent> links;

    bool isBatch() const { return (traceId & kBatchTraceBit) != 0; }

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
 * query trace in trace-id (submission) order. Batch traces are
 * excluded — their composition is legitimately scheduling-dependent.
 */
std::string canonicalForestText(const std::vector<SpanTree> &trees);

} // namespace erec::obs
