#pragma once

/**
 * @file
 * Prometheus-style metrics registry: per-deployment QPS windows and
 * tail latency percentiles. The HPA controller and the experiment
 * harnesses read these signals from here exclusively, mirroring how
 * the paper's setup scrapes custom statistics from a Prometheus
 * metrics server. Point-in-time values (memory, replica counts) are
 * gauges of the bound obs::Registry, not of this class.
 *
 * When bound to an obs::Registry (bindObservability), every completion
 * and SLA violation is additionally published as exportable labelled
 * metrics (erec_completions_total, erec_sla_violations_total and the
 * erec_latency_ms histogram), so a run's telemetry can be dumped in
 * Prometheus text format.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "elasticrec/common/stats.h"
#include "elasticrec/common/units.h"
#include "elasticrec/obs/metric.h"
#include "elasticrec/obs/sketch.h"

namespace erec::cluster {

class MetricsRegistry
{
  public:
    /**
     * @param rate_window Window for QPS measurement.
     * @param latency_window Window for tail-latency percentiles.
     */
    explicit MetricsRegistry(
        SimTime rate_window = 10 * units::kSecond,
        SimTime latency_window = 30 * units::kSecond);

    /**
     * Mirror completions / SLA violations / latency samples into an
     * exportable registry. Pass nullptr to detach. The registry must
     * outlive this object (or the next bind).
     */
    void bindObservability(obs::Registry *registry);

    /** Per-deployment series, exposed as an opaque handle so hot
     *  recording paths can skip the by-name map lookup. */
    struct Series
    {
        Series(SimTime rate_window, SimTime latency_window)
            : rate(rate_window), latency(latency_window)
        {}
        RateWindow rate;
        // Streaming sketch, not a raw sample store: latencyQuantile sits
        // on the HPA evaluation path and must stay O(1) per completion.
        obs::WindowedQuantileSketch latency;
        std::uint64_t slaViolations = 0;
        // Resolved obs handles; null when no registry is bound.
        obs::Counter *obsCompletions = nullptr;
        obs::Counter *obsSlaViolations = nullptr;
        obs::Histogram *obsLatencyMs = nullptr;
    };

    /**
     * Find-or-create a deployment's series and return a stable handle
     * (map nodes don't move). Creation binds the exportable counters,
     * so resolve handles lazily — at first record, not up front — to
     * keep the export's registration order equal to the by-name path.
     */
    // ERC_HOT_PATH_ALLOW("handle resolution is lazy first-touch: one find-or-create per deployment over a run, then callers record through the cached pointer")
    Series &seriesFor(const std::string &deployment)
    {
        return series(deployment);
    }

    /** Record one completed request with its end-to-end latency. */
    void recordCompletion(const std::string &deployment, SimTime now,
                          SimTime latency);

    /** Handle-based variant for per-event recording paths. */
    void recordCompletion(Series &s, SimTime now, SimTime latency);

    /** Record an SLA violation (completion later than the SLA bound). */
    void recordSlaViolation(const std::string &deployment);

    /** Handle-based variant for per-event recording paths. */
    void recordSlaViolation(Series &s);

    /**
     * Queries per second completed by a deployment, trailing window.
     * Unknown deployments read as 0 and are not created.
     */
    double qps(const std::string &deployment, SimTime now);

    /**
     * Latency quantile of a deployment over the trailing window.
     * Unknown deployments read as 0 and are not created.
     */
    SimTime latencyQuantile(const std::string &deployment, SimTime now,
                            double q);

    /** Total completions since start. */
    std::uint64_t completions(const std::string &deployment) const;

    /** Total SLA violations since start. */
    std::uint64_t slaViolations(const std::string &deployment) const;

    /** Names of deployments that have recorded at least one sample. */
    std::vector<std::string> deployments() const;

  private:
    Series &series(const std::string &deployment);
    void bindSeries(const std::string &deployment, Series &s);

    SimTime rateWindow_;
    SimTime latencyWindow_;
    obs::Registry *obs_ = nullptr;
    std::map<std::string, Series> series_;
};

} // namespace erec::cluster
