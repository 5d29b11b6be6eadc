#pragma once

/**
 * @file
 * The `erec_trace/v3` schema: the contract every exported
 * `*_traces.jsonl` artifact must satisfy, validated by erec_report in
 * the CI smoke stage so a broken exporter (or a causality bug in span
 * id assignment) fails the build instead of silently producing
 * garbage traces.
 *
 * A file is a bag of SpanEvents in any order; events group by trace id
 * (obs::buildSpanTrees). A trace is complete when its root span
 * (kRootSpanId) is recorded; without one it is lost or still in
 * flight. Per trace:
 *  - trace and span ids are non-zero, span ids are unique;
 *  - every span closes after it opens (end >= start);
 *  - a parent that was recorded never starts after its child ends;
 *  - complete traces only: every parent resolves, and every span lies
 *    inside the root span (an open trace legitimately dangles: its
 *    enclosing spans have not closed yet).
 */

#include <string>
#include <vector>

#include "elasticrec/obs/flight_recorder.h"

namespace erec::obs {

/** Schema identifier erec_report reports against. */
inline constexpr const char *kTraceSchemaVersion = "erec_trace/v3";

/** Validate span events; returns one message per violation (empty =
 *  ok). */
std::vector<std::string> validateTraceSchema(
    const std::vector<SpanEvent> &events);

} // namespace erec::obs
