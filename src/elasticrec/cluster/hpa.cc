#include "elasticrec/cluster/hpa.h"

#include <algorithm>
#include <cmath>

#include "elasticrec/common/error.h"

namespace erec::cluster {

Hpa::Hpa(double target) : target_(target)
{
    ERC_CHECK(target_ > 0, "HPA target must be positive");
}

void
Hpa::bindObservability(obs::Registry &registry,
                       const std::string &deployment)
{
    obsScaleUp_ = &registry.counter(
        "erec_hpa_scale_events_total",
        "Desired-replica changes decided by the HPA.",
        {{"deployment", deployment}, {"direction", "up"}});
    obsScaleDown_ = &registry.counter(
        "erec_hpa_scale_events_total",
        "Desired-replica changes decided by the HPA.",
        {{"deployment", deployment}, {"direction", "down"}});
    obsMetricValue_ = &registry.gauge(
        "erec_hpa_metric_value",
        "Metric value observed at the last HPA reconcile.",
        {{"deployment", deployment}});
    obsTriggerValue_ = &registry.gauge(
        "erec_hpa_scale_trigger_value",
        "Metric value that triggered the last scale event.",
        {{"deployment", deployment}});
}

std::uint32_t
Hpa::reconcile(SimTime now, std::uint32_t current, double measured)
{
    ERC_CHECK(current >= 1, "reconcile requires at least one replica");
    const double ratio = measured / target_;

    std::uint32_t recommendation = current;
    if (std::abs(ratio - 1.0) > kTolerance) {
        recommendation = static_cast<std::uint32_t>(std::max(
            1.0, std::ceil(static_cast<double>(current) * ratio)));
    }

    // Rate-limit scale-up per reconcile (Kubernetes default policy).
    const auto cap = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(std::ceil(
            static_cast<double>(current) * kMaxScaleUpFactor)),
        current + kMaxScaleUpPods);
    recommendation = std::min(recommendation, cap);

    // Record and trim the recommendation history.
    history_.emplace_back(now, recommendation);
    const SimTime cutoff = now - kStabilizationWindow;
    while (!history_.empty() && history_.front().first < cutoff)
        history_.pop_front();

    std::uint32_t desired;
    if (recommendation >= current) {
        desired = recommendation; // Scale up (or hold) immediately.
    } else {
        // Scale-down stabilization: act on the *highest* recommendation
        // within the window to avoid flapping.
        std::uint32_t stabilized = recommendation;
        for (const auto &[t, r] : history_)
            stabilized = std::max(stabilized, r);
        desired = std::min(stabilized, current);
    }

    if (obsMetricValue_ != nullptr)
        obsMetricValue_->set(measured);

    // Edge-detect desired-count changes so one decision (which may take
    // several syncs to realize as ready pods) counts as one event.
    if (!hasLastDesired_) {
        hasLastDesired_ = true;
        lastDesired_ = current;
    }
    if (desired != lastDesired_) {
        const bool up = desired > lastDesired_;
        if (up)
            ++scaleUpEvents_;
        else
            ++scaleDownEvents_;
        if (obsScaleUp_ != nullptr) {
            (up ? obsScaleUp_ : obsScaleDown_)->inc();
            obsTriggerValue_->set(measured);
        }
        lastDesired_ = desired;
    }
    return desired;
}

} // namespace erec::cluster
