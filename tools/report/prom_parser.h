#pragma once

/**
 * @file
 * Minimal validator for the Prometheus text exposition format, used by
 * `erec_report` and by tests to check what the obs exporters emit. Non-throwing: all problems are collected into
 * PromParseResult::errors so callers can report every issue at once.
 *
 * Checks performed:
 *   - `# HELP` / `# TYPE` comment syntax, known metric kinds, and that
 *     TYPE precedes the first sample of its family;
 *   - metric/label name charset, label quoting and escape sequences;
 *   - sample values parse as floating point (inf/nan included);
 *   - histogram families expose `_bucket` series with ascending `le`
 *     bounds, non-decreasing cumulative counts, a `+Inf` bucket, and
 *     matching `_count` / `_sum` series;
 *   - no header-only families: a declared TYPE must be followed by at
 *     least one sample of its family.
 */

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace erec::tools {

/** One parsed sample line. */
struct PromSample
{
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0.0;
    std::size_t line = 0; ///< 1-based source line.
};

/** Outcome of parsing one exposition document. */
struct PromParseResult
{
    bool ok = false;
    std::vector<std::string> errors;
    /** Family name -> declared TYPE (counter/gauge/histogram/...). */
    std::map<std::string, std::string> types;
    /** Family name -> declared HELP string (unescaped). */
    std::map<std::string, std::string> help;
    std::vector<PromSample> samples;

    /**
     * Value of the first sample matching `name` and containing every
     * label in `labels` (extra labels on the sample are ignored).
     * Returns `fallback` when absent.
     */
    double value(const std::string &name,
                 const std::map<std::string, std::string> &labels = {},
                 double fallback = 0.0) const;

    /** Number of samples of one family (counting `_bucket` etc. as
     *  their own families, matching exposition-format naming). */
    std::size_t count(const std::string &name) const;
};

/** Parse and validate a full exposition document. */
PromParseResult parsePrometheusText(const std::string &text);

} // namespace erec::tools
