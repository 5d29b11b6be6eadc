#pragma once

/**
 * @file
 * Chrome/Perfetto trace-event JSON export ("JSON trace format",
 * loadable in ui.perfetto.dev or chrome://tracing) of SpanEvents, from
 * the serving stack's flight recorder and the simulator alike: one
 * track per trace, one complete "X" event per span, and batch->member
 * fan-in links as flow events ("s" on the batch span, "f" on the
 * member query's root) so the UI draws the arrow from a query to the
 * coalesced batch it waited on.
 *
 * The emitter writes one event per line, globally sorted by timestamp,
 * which is what the erec_trace/v2 perfetto profile (validatePerfetto)
 * checks: well-formed event lines, monotonic timestamps, and every
 * flow id resolving to a matched start/finish pair.
 */

#include <iosfwd>
#include <string>
#include <vector>

#include "elasticrec/obs/flight_recorder.h"

namespace erec::obs {

/** Export span events as Chrome trace-event JSON. */
void writePerfettoJson(std::ostream &os,
                       const std::vector<SpanEvent> &events);
std::string toPerfettoJson(const std::vector<SpanEvent> &events);

/**
 * Validate text against the erec_trace/v2 perfetto profile. Returns
 * one message per violation; empty means valid. Backs promcheck's
 * handling of `*_perfetto.json` artifacts.
 */
std::vector<std::string> validatePerfettoJson(const std::string &text);

} // namespace erec::obs
