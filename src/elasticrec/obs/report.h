#pragma once

/**
 * @file
 * Per-stage latency attribution and run reports.
 *
 * Folds sampled span trees (obs::buildSpanTrees over the simulator's
 * spans, a drained FlightRecorder, or a re-read `_traces.jsonl`) into
 * the Fig. 3-style stage breakdown the paper argues from — where does
 * a query's latency go: queueing, dense compute, the gather RPCs, or
 * the sparse shards themselves? A trace counts as completed when its
 * root span was recorded; the root span's duration is its end-to-end
 * latency and every other span is a stage. Batch trees are skipped:
 * they are not queries.
 * Per-deployment span names are normalized to a small stable stage set
 * (`sparse/<dep>/queue` -> `sparse/queue`, `rpc/<dep>/request` ->
 * `rpc/request`, ...) so runs with many shards stay readable, and each
 * stage's tail is tracked with a QuantileSketch, keeping attribution
 * O(1) per span.
 *
 * The renderers produce the sections of `erec_report`'s output: stage
 * breakdown table, SLO verdict table (one row per alert rule that
 * transitioned), and the alert timeline. All output is deterministic
 * for deterministic inputs.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "elasticrec/obs/slo.h"
#include "elasticrec/obs/span_tree.h"

namespace erec::obs {

/** Aggregate latency contribution of one pipeline stage. */
struct StageStats
{
    std::string stage;
    std::uint64_t spans = 0;
    double totalMs = 0.0;
    double meanMs = 0.0;
    double p95Ms = 0.0;
    /** Share of the summed end-to-end latency of completed traces.
     *  Overlapping stages (dense compute vs. gather) can exceed 1. */
    double shareOfEndToEnd = 0.0;
};

/** Stage attribution over one run's sampled traces. */
struct AttributionReport
{
    /** Stages ordered by total contribution, largest first (ties by
     *  name, so the ordering is deterministic). */
    std::vector<StageStats> stages;
    std::uint64_t tracedQueries = 0;
    std::uint64_t completedTraces = 0;
    /** Traces without a root span: the query was lost (pod crash) or
     *  still in flight when the spans were collected. */
    std::uint64_t lostTraces = 0;
    /** Spans excluded from the stage sketches: every span of a
     *  lost/in-flight trace (its query never finished), plus any span
     *  of a completed trace whose end precedes its start. Mixing them
     *  into the stage statistics would count bogus durations. */
    std::uint64_t openSpans = 0;
    /** Summed root-span (end-to-end) latency of completed traces. */
    double endToEndTotalMs = 0.0;
    double meanEndToEndMs = 0.0;
    double p95EndToEndMs = 0.0;
};

/** Normalize a span name to its stage: strips the per-deployment path
 *  segment from `sparse/<dep>/...` and `rpc/<dep>/...` spans. */
std::string stageOf(const std::string &span_name);

AttributionReport attributeStages(const std::vector<SpanTree> &trees);

/** One aggregated critical-path chain: the stage sequence that
 *  bounded completion for `count` traced queries. */
struct CriticalPathStat
{
    /** Normalized stage chain, root first ("query > rpc/request >
     *  sparse/service"). */
    std::string chain;
    std::uint64_t count = 0;
    double totalMs = 0.0;
    double meanMs = 0.0;
};

/** Critical-path analysis over one run's sampled traces. */
struct CriticalPathReport
{
    /** Chains ordered by count (largest first), ties by chain name. */
    std::vector<CriticalPathStat> chains;
    /** Completed traces the analysis covered. */
    std::uint64_t analyzedTraces = 0;
};

/**
 * Per completed query trace, walk the span tree from the root and
 * follow the child whose end time bounds its parent's completion; the
 * visited stage chain is the query's critical path. Chains are
 * aggregated by their normalized (stageOf) signature.
 */
CriticalPathReport analyzeCriticalPaths(
    const std::vector<SpanTree> &trees);

/** Per-rule rollup of an alert log. */
struct SloVerdict
{
    std::string alert;
    std::uint64_t fired = 0;
    std::uint64_t resolved = 0;
    bool firingAtEnd = false;
};

/** One verdict per alert that transitioned, ordered by alert name. */
std::vector<SloVerdict> summarizeAlerts(
    const std::vector<AlertEvent> &events);

/** `erec_report` sections. Each is a no-op-free renderer: empty input
 *  still prints a summary line, so reports are self-describing. */
void writeStageTable(std::ostream &os, const AttributionReport &report);
void writeCriticalPathTable(std::ostream &os,
                            const CriticalPathReport &report);
void writeSloVerdicts(std::ostream &os,
                      const std::vector<SloVerdict> &verdicts);
void writeAlertTimeline(std::ostream &os,
                        const std::vector<AlertEvent> &events);

} // namespace erec::obs
