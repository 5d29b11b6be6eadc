#include "elasticrec/workload/traffic.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "elasticrec/common/error.h"

namespace erec::workload {

TrafficPattern::TrafficPattern(std::vector<Step> steps)
    : steps_(std::move(steps))
{
    ERC_CHECK(!steps_.empty(), "traffic pattern needs at least one step");
    for (std::size_t i = 1; i < steps_.size(); ++i)
        ERC_CHECK(steps_[i].start > steps_[i - 1].start,
                  "traffic steps must have strictly increasing times");
    for (const auto &s : steps_)
        ERC_CHECK(s.qps >= 0.0, "traffic rate must be non-negative");
}

TrafficPattern
TrafficPattern::constant(double qps)
{
    return TrafficPattern({Step{0, qps}});
}

TrafficPattern
TrafficPattern::fig19()
{
    constexpr double kBaseQps = 20.0;
    constexpr double kPeakQps = 100.0;
    constexpr int kUpSteps = 5;
    constexpr SimTime kRampStart = 5 * units::kMinute;
    constexpr SimTime kRampEnd = 20 * units::kMinute;
    constexpr SimTime kDropTime = 24 * units::kMinute;
    std::vector<Step> steps;
    steps.push_back({0, kBaseQps});
    const double dq = (kPeakQps - kBaseQps) / kUpSteps;
    const SimTime dt = (kRampEnd - kRampStart) / kUpSteps;
    for (int i = 1; i <= kUpSteps; ++i)
        steps.push_back({kRampStart + dt * (i - 1), kBaseQps + dq * i});
    steps.push_back({kDropTime, kBaseQps});
    return TrafficPattern(std::move(steps));
}

TrafficPattern
TrafficPattern::randomWalk(double start_qps, double min_qps,
                           double max_qps, SimTime step,
                           SimTime duration, std::uint64_t seed)
{
    ERC_CHECK(min_qps > 0 && min_qps <= start_qps &&
                  start_qps <= max_qps,
              "need min <= start <= max with positive rates");
    ERC_CHECK(step > 0 && duration > step,
              "need a positive step shorter than the duration");
    Rng rng(seed);
    std::vector<Step> steps;
    double rate = start_qps;
    for (SimTime t = 0; t < duration; t += step) {
        steps.push_back({t, rate});
        rate = std::clamp(rate * rng.uniform(0.5, 2.0), min_qps,
                          max_qps);
    }
    return TrafficPattern(std::move(steps));
}

TrafficPattern
TrafficPattern::diurnal(const DiurnalOptions &options)
{
    ERC_CHECK(options.troughQps > 0 &&
                  options.troughQps <= options.peakQps,
              "need 0 < trough <= peak");
    ERC_CHECK(options.step > 0 && options.period > options.step,
              "need a positive step shorter than the period");
    ERC_CHECK(options.duration > options.step,
              "need a duration longer than one step");
    const double swing = options.peakQps - options.troughQps;
    std::vector<Step> steps;
    for (SimTime t = 0; t < options.duration; t += options.step) {
        // Raised cosine: trough at phase 0, peak at phase pi.
        const double phase = 2.0 * std::numbers::pi *
                             static_cast<double>(t % options.period) /
                             static_cast<double>(options.period);
        const double rate =
            options.troughQps + swing * 0.5 * (1.0 - std::cos(phase));
        steps.push_back({t, rate});
    }
    return TrafficPattern(std::move(steps));
}

double
TrafficPattern::qpsAt(SimTime t) const
{
    double rate = steps_.front().qps;
    for (const auto &s : steps_) {
        if (s.start <= t)
            rate = s.qps;
        else
            break;
    }
    return rate;
}

PoissonArrivals::PoissonArrivals(TrafficPattern pattern, std::uint64_t seed)
    : pattern_(std::move(pattern)), rng_(seed)
{
}

SimTime
PoissonArrivals::nextAfter(SimTime now)
{
    SimTime t = now;
    const auto &steps = pattern_.steps();
    while (true) {
        const double rate = pattern_.qpsAt(t);
        // Find the next rate-change boundary after t.
        SimTime boundary = std::numeric_limits<SimTime>::max();
        for (const auto &s : steps) {
            if (s.start > t) {
                boundary = s.start;
                break;
            }
        }
        if (rate <= 0.0) {
            // Idle until the next boundary; with no boundary left the
            // process has ended — report "never".
            if (boundary == std::numeric_limits<SimTime>::max())
                return boundary;
            t = boundary;
            continue;
        }
        const double gap_sec = rng_.exponential(rate);
        const SimTime candidate = t + units::fromSeconds(gap_sec);
        if (candidate < boundary)
            return std::max(candidate, now + 1);
        t = boundary;
    }
}

} // namespace erec::workload
