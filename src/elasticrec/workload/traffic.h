#pragma once

/**
 * @file
 * Input query traffic modeling: piecewise-constant target-QPS patterns
 * and open-loop Poisson arrival processes driven by them. Used for the
 * paper's dynamic-traffic experiment (Figure 19).
 */

#include <vector>

#include "elasticrec/common/rng.h"
#include "elasticrec/common/units.h"

namespace erec::workload {

/**
 * A piecewise-constant target-QPS schedule. Steps are (startTime, qps)
 * pairs; the rate before the first step is the first step's rate.
 */
class TrafficPattern
{
  public:
    struct Step
    {
        SimTime start;
        double qps;
    };

    explicit TrafficPattern(std::vector<Step> steps);

    /** Constant traffic at the given rate. */
    static TrafficPattern constant(double qps);

    /**
     * The Figure 19 schedule: 20 QPS, rising in 5 equal steps to 100 QPS
     * between minutes 5 and 20, holding, then dropping back to 20 QPS at
     * minute 24.
     */
    static TrafficPattern fig19();

    /**
     * Bursty random-walk traffic: every `step` the rate multiplies by
     * a random factor in [0.5, 2.0], clamped to [min_qps, max_qps].
     * Used to stress-test autoscaling beyond the paper's smooth ramp.
     */
    static TrafficPattern randomWalk(double start_qps, double min_qps,
                                     double max_qps, SimTime step,
                                     SimTime duration,
                                     std::uint64_t seed = 17);

    struct DiurnalOptions
    {
        /** Rate at the daily trough (t = 0). */
        double troughQps = 20.0;
        /** Rate at the daily peak (t = period / 2). */
        double peakQps = 100.0;
        /** Length of one trough-to-trough cycle. */
        SimTime period = 60 * units::kMinute;
        /** Width of each piecewise-constant step. */
        SimTime step = units::kMinute;
        /** Total schedule length (cycles repeat until here). */
        SimTime duration = 120 * units::kMinute;
    };

    /**
     * Smooth diurnal (day/night) traffic: a raised-cosine cycle between
     * troughQps and peakQps, discretized into piecewise-constant steps.
     * This is the shape production recommender fleets autoscale
     * against — long, predictable swells rather than fig19's abrupt
     * staircase — and the schedule the sim throughput bench replays at
     * million-query scale.
     */
    static TrafficPattern diurnal(const DiurnalOptions &options);

    /** Target rate at simulated time t (queries per second). */
    double qpsAt(SimTime t) const;

    const std::vector<Step> &steps() const { return steps_; }

  private:
    std::vector<Step> steps_;
};

/**
 * Open-loop Poisson arrival process whose instantaneous rate follows a
 * TrafficPattern. Piecewise-constant rates are handled exactly: an
 * exponential gap that would cross a rate boundary is restarted at the
 * boundary with the new rate (memorylessness makes this exact).
 */
class PoissonArrivals
{
  public:
    PoissonArrivals(TrafficPattern pattern, std::uint64_t seed = 7);

    /**
     * Time of the next arrival strictly after `now`. Returns
     * std::numeric_limits<SimTime>::max() when the pattern's rate has
     * dropped to zero with no later step (no more arrivals, ever).
     */
    SimTime nextAfter(SimTime now);

  private:
    TrafficPattern pattern_;
    Rng rng_;
};

} // namespace erec::workload
