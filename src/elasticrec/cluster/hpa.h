#pragma once

/**
 * @file
 * Horizontal Pod Autoscaler (Section IV-D).
 *
 * ElasticRec drives sparse shards with a throughput-centric target (the
 * shard's stress-tested QPS_max per replica) and dense shards with a
 * latency-centric target (65% of the SLA). Scaling follows the
 * Kubernetes HPA control law:
 *
 *   desired = ceil(current * measured / target)
 *
 * with a +/- tolerance dead band and a scale-down stabilization window
 * (scale-down uses the maximum desired count recommended over the
 * window, mirroring Kubernetes' behaviour). The tolerance, the window
 * and the scale-up rate limit are constants, so only the target is a
 * parameter. The caller schedules the reconciles.
 */

#include <cstdint>
#include <deque>
#include <string>

#include "elasticrec/common/units.h"
#include "elasticrec/obs/metric.h"

namespace erec::cluster {

class Hpa
{
  public:
    /** Dead band: no action when |measured/target - 1| <= kTolerance
     *  (the Kubernetes default). */
    static constexpr double kTolerance = 0.10;
    /** Scale-down stabilization window (Kubernetes defaults to 300 s). */
    static constexpr SimTime kStabilizationWindow = 180 * units::kSecond;
    /**
     * Scale-up rate limit per reconcile, mirroring the Kubernetes
     * default scaling policy (at most double, or +4 pods, whichever is
     * larger). Prevents queue-buildup latency spikes from exploding
     * the replica count in one step.
     */
    static constexpr double kMaxScaleUpFactor = 2.0;
    static constexpr std::uint32_t kMaxScaleUpPods = 4;

    /**
     * @param target Target value: QPS_max per replica (queries/sec), or
     *        the P95 latency target (SimTime us).
     */
    explicit Hpa(double target);

    /**
     * Publish scale decisions to an exportable registry under the
     * given deployment label: the measured metric value every
     * reconcile, and a scale-event counter (with direction) plus the
     * triggering metric value whenever the desired count changes.
     * The registry must outlive this object.
     */
    void bindObservability(obs::Registry &registry,
                           const std::string &deployment);

    /**
     * One reconcile step.
     *
     * @param now Current simulated time.
     * @param current Current (ready) replica count.
     * @param measured Measured metric value, in the target's unit.
     * @return The new desired replica count.
     */
    std::uint32_t reconcile(SimTime now, std::uint32_t current,
                            double measured);

    /** Desired-count increases / decreases across reconciles. */
    std::uint64_t scaleUpEvents() const { return scaleUpEvents_; }
    std::uint64_t scaleDownEvents() const { return scaleDownEvents_; }

  private:
    double target_;
    /** (time, recommendation) history for scale-down stabilization. */
    std::deque<std::pair<SimTime, std::uint32_t>> history_;
    /** Last desired count, for scale-event edge detection. */
    std::uint32_t lastDesired_ = 0;
    bool hasLastDesired_ = false;
    std::uint64_t scaleUpEvents_ = 0;
    std::uint64_t scaleDownEvents_ = 0;
    // Resolved obs handles; null until a registry is bound.
    obs::Counter *obsScaleUp_ = nullptr;
    obs::Counter *obsScaleDown_ = nullptr;
    obs::Gauge *obsMetricValue_ = nullptr;
    obs::Gauge *obsTriggerValue_ = nullptr;
};

} // namespace erec::cluster
