#pragma once

/**
 * @file
 * Exporters for the observability layer.
 *
 *  - Prometheus text exposition format (the format the paper's metrics
 *    server serves to its scraper): HELP/TYPE headers, escaped label
 *    values, cumulative `_bucket{le=...}` histogram series plus `_sum`
 *    and `_count`.
 *  - JSON lines for traces (`erec_trace/v3`): one SpanEvent per line,
 *    with a strict reader so tooling (and tests) can round-trip what
 *    the writer emits, plus the Chrome/Perfetto view of the same spans.
 *
 * Output ordering is deterministic (families and children are stored
 * in ordered maps), so two identical runs export byte-identical text.
 */

#include <iosfwd>
#include <string>
#include <vector>

#include "elasticrec/obs/flight_recorder.h"
#include "elasticrec/obs/metric.h"
#include "elasticrec/obs/slo.h"

namespace erec::obs {

/** Escape a label value for the text format (backslash, quote, \n). */
std::string escapeLabelValue(const std::string &value);

/** Render the whole registry in Prometheus text exposition format. */
void writePrometheusText(std::ostream &os, const Registry &registry);
/** The same text as a string, for the tests that compare runs by it. */
std::string toPrometheusText(const Registry &registry);

/**
 * Write span events as JSON lines, one event per line in the given
 * order, with its name resolved from the interned table:
 * `{"trace_id":..,"span_id":..,"parent_id":..,"name":"..",
 *   "start_us":..,"end_us":..,"arg":..}`.
 */
void writeTraceJsonLines(std::ostream &os,
                         const std::vector<SpanEvent> &events);
/** The same lines as a string, for round-trip tests. */
std::string toTraceJsonLines(const std::vector<SpanEvent> &events);

/**
 * Parse JSON-lines span events as written by writeTraceJsonLines,
 * interning each name. Raises ConfigError on malformed input (unknown
 * or missing keys included).
 */
std::vector<SpanEvent> readTraceJsonLines(const std::string &text);

/** Optional side artifacts bundled with a metrics dump. */
struct ExportArtifacts
{
    /** Recorded spans -> `<stem>_traces.jsonl` and
     *  `<stem>_perfetto.json` (null: skip both). */
    const std::vector<SpanEvent> *traces = nullptr;
    /** Alert transitions -> `<stem>_alerts.jsonl` (null: skip). */
    const std::vector<AlertEvent> *alerts = nullptr;
};

/**
 * Dump one run's exports into a directory: `<dir>/<stem>.prom` plus
 * the artifact files selected in `artifacts`. The directory is created
 * if needed. This is the backend of the bench binaries'
 * `--metrics-out DIR` flag.
 */
void writeMetricsFiles(const std::string &dir, const std::string &stem,
                       const Registry &registry,
                       const ExportArtifacts &artifacts = {});

} // namespace erec::obs
