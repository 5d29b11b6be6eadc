#pragma once

/**
 * @file
 * Chrome/Perfetto trace-event JSON export ("JSON trace format",
 * loadable in ui.perfetto.dev or chrome://tracing) of SpanEvents, from
 * the serving stack's flight recorder and the simulator alike: one
 * track per trace and one complete "X" event per span.
 *
 * The emitter writes one event per line, globally sorted by timestamp,
 * which is what the erec_trace/v3 perfetto profile
 * (validatePerfettoJson) checks: the `{"traceEvents":[` ... `]}`
 * envelope, one complete-event object per line with a comma between
 * events, and monotonic timestamps.
 */

#include <iosfwd>
#include <string>
#include <vector>

#include "elasticrec/obs/flight_recorder.h"

namespace erec::obs {

/** Export span events as Chrome trace-event JSON. */
void writePerfettoJson(std::ostream &os,
                       const std::vector<SpanEvent> &events);
/** The same JSON as a string, for flight_recorder_test. */
std::string toPerfettoJson(const std::vector<SpanEvent> &events);

/**
 * Validate text against the erec_trace/v3 perfetto profile, parsing
 * one event line at a time. Returns one message per violation; empty
 * means valid. Backs erec_report's check of `*_perfetto.json` files.
 */
std::vector<std::string> validatePerfettoJson(const std::string &text);

} // namespace erec::obs
