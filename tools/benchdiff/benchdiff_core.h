#pragma once

/**
 * @file
 * Core of the perf-regression gate (`erec_benchdiff`): parses two
 * BENCH_*.json files emitted by the bench harnesses and compares the
 * current run's QPS against the checked-in baseline, sweep point by
 * sweep point. Points are matched on a numeric sweep key — "threads"
 * by default (the serving bench), or any other member via `--key`
 * (the kernel bench matches on "point" ids). "qps" stays the rate
 * field name whatever the unit (the kernel bench stores GB/s and
 * GFLOP/s in it); the gate only compares ratios.
 *
 * A point regresses when current_qps < baseline_qps * (1 - tolerance).
 * Faster-than-baseline runs always pass — the gate only guards the
 * floor, so baselines can stay conservative enough to hold across CI
 * machine generations.
 *
 * Beyond QPS, per-metric tolerance overrides (CLI:
 * `--metric-tolerance name=value`, repeatable) gate additional
 * *lower-is-better* sweep metrics: every baseline entry carrying the
 * metric must be matched by current_value <= baseline_value *
 * (1 + tolerance), so `--metric-tolerance allocs_per_query=0` against
 * a baseline of 0 demands an exact zero. A baseline entry lacking an
 * overridden metric is a config error (the override names a metric the
 * baseline does not publish); a current entry lacking it fails the
 * gate.
 *
 * Files are read with the repo's JSON codec (common/json.h), which
 * accepts any strict JSON; compare() then requires the bench schema: a
 * top-level object with a "sweep" array of objects carrying numeric
 * "qps" and the sweep key.
 */

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "elasticrec/common/json.h"

namespace erec::benchdiff {

/**
 * Parse a tolerance argument: either a fraction ("0.15") or a
 * percentage ("15%"). Must land in [0, 1). Raises erec::ConfigError.
 */
double parseTolerance(const std::string &arg);

/**
 * Parse a `--metric-tolerance` argument of the form "name=value",
 * where value follows parseTolerance ("0.15" or "15%", [0, 1)).
 * Raises erec::ConfigError on a missing '=', empty name or bad value.
 */
std::pair<std::string, double>
parseMetricTolerance(const std::string &arg);

/** Per-metric tolerance overrides (metric name -> tolerance). */
using MetricTolerances = std::map<std::string, double>;

/** Verdict for one overridden metric at one sweep point. */
struct MetricDiff
{
    std::string name;
    double baseline = 0.0;
    /** Current value; 0 when the metric is missing. */
    double current = 0.0;
    double tolerance = 0.0;
    /** True when the current entry lacks this metric. */
    bool missing = false;
    /** Lower-is-better: current > baseline * (1 + tolerance). */
    bool regressed = false;
};

/** Verdict for one baseline sweep point. */
struct PointDiff
{
    /** Value of the sweep key (threads, point id, ...) at this point. */
    std::size_t keyValue = 0;
    double baselineQps = 0.0;
    /** Current QPS; 0 when the point is missing from the current run. */
    double currentQps = 0.0;
    /** currentQps / baselineQps (0 when missing). */
    double ratio = 0.0;
    /** True when the current run lacks this thread count entirely. */
    bool missing = false;
    bool regressed = false;
    /** One verdict per overridden metric (empty without overrides). */
    std::vector<MetricDiff> metrics;
};

/** Full comparison result. */
struct DiffReport
{
    std::vector<PointDiff> points;
    double tolerance = 0.0;
    /** Sweep member the points were matched on ("threads", ...). */
    std::string keyName = "threads";
    /** True iff no point (QPS or overridden metric) is missing or
     *  regressed. */
    bool pass = true;
};

/**
 * Compare a current bench run against the baseline. Every baseline
 * sweep point must appear in the current run (matched on the numeric
 * `key` member, default "threads") and hold >= (1 - tolerance) of the
 * baseline QPS. Extra points in the current run are ignored — adding
 * sweep coverage is not a regression. Each metric in
 * `metric_tolerances` is additionally gated lower-is-better at every
 * sweep point (see the file comment).
 */
DiffReport compare(const JsonValue &baseline, const JsonValue &current,
                   double tolerance,
                   const MetricTolerances &metric_tolerances = {},
                   const std::string &key = "threads");

/** Human-readable per-point report with a PASS/FAIL trailer. */
std::string formatReport(const DiffReport &report);

} // namespace erec::benchdiff
