#include "elasticrec/cluster/metrics.h"

namespace erec::cluster {

MetricsRegistry::MetricsRegistry(SimTime rate_window, SimTime latency_window)
    : rateWindow_(rate_window), latencyWindow_(latency_window)
{
}

void
MetricsRegistry::bindObservability(obs::Registry *registry)
{
    obs_ = registry;
    for (auto &[name, s] : series_) {
        if (obs_ == nullptr) {
            s.obsCompletions = nullptr;
            s.obsSlaViolations = nullptr;
            s.obsLatencyMs = nullptr;
        } else {
            bindSeries(name, s);
        }
    }
}

void
MetricsRegistry::bindSeries(const std::string &deployment, Series &s)
{
    const obs::Labels labels = {{"deployment", deployment}};
    s.obsCompletions =
        &obs_->counter("erec_completions_total",
                       "Completed queries per deployment.", labels);
    s.obsSlaViolations = &obs_->counter(
        "erec_sla_violations_total",
        "Completions that exceeded the SLA bound.", labels);
    s.obsLatencyMs = &obs_->histogram(
        "erec_latency_ms", "End-to-end query latency in milliseconds.",
        obs::defaultLatencyBucketsMs(), labels);
}

MetricsRegistry::Series &
MetricsRegistry::series(const std::string &deployment)
{
    auto it = series_.find(deployment);
    if (it == series_.end()) {
        it = series_
                 .emplace(deployment,
                          Series(rateWindow_, latencyWindow_))
                 .first;
        if (obs_ != nullptr)
            bindSeries(deployment, it->second);
    }
    return it->second;
}

// ERC_HOT_PATH_ALLOW("metrics recording: series binding and window growth are cold/amortized (lazy first-touch registration, recycled sample windows); the sim's AllocGate pins the gated query path at zero at runtime")
void
MetricsRegistry::recordCompletion(const std::string &deployment,
                                  SimTime now, SimTime latency)
{
    recordCompletion(series(deployment), now, latency);
}

// ERC_HOT_PATH_ALLOW("metrics recording: series binding and window growth are cold/amortized (lazy first-touch registration, recycled sample windows); the sim's AllocGate pins the gated query path at zero at runtime")
void
MetricsRegistry::recordCompletion(Series &s, SimTime now,
                                  SimTime latency)
{
    s.rate.add(now);
    s.latency.add(now, static_cast<double>(latency));
    if (s.obsCompletions != nullptr) {
        s.obsCompletions->inc();
        s.obsLatencyMs->observe(static_cast<double>(latency) /
                                static_cast<double>(units::kMillisecond));
    }
}

// ERC_HOT_PATH_ALLOW("metrics recording: series binding and window growth are cold/amortized (lazy first-touch registration, recycled sample windows); the sim's AllocGate pins the gated query path at zero at runtime")
void
MetricsRegistry::recordSlaViolation(const std::string &deployment)
{
    recordSlaViolation(series(deployment));
}

// ERC_HOT_PATH_ALLOW("metrics recording: series binding and window growth are cold/amortized (lazy first-touch registration, recycled sample windows); the sim's AllocGate pins the gated query path at zero at runtime")
void
MetricsRegistry::recordSlaViolation(Series &s)
{
    ++s.slaViolations;
    if (s.obsSlaViolations != nullptr)
        s.obsSlaViolations->inc();
}

double
MetricsRegistry::qps(const std::string &deployment, SimTime now)
{
    const auto it = series_.find(deployment);
    return it == series_.end() ? 0.0 : it->second.rate.rate(now);
}

SimTime
MetricsRegistry::latencyQuantile(const std::string &deployment,
                                 SimTime now, double q)
{
    const auto it = series_.find(deployment);
    if (it == series_.end())
        return 0;
    return static_cast<SimTime>(it->second.latency.quantile(now, q));
}

std::uint64_t
MetricsRegistry::completions(const std::string &deployment) const
{
    const auto it = series_.find(deployment);
    return it == series_.end() ? 0 : it->second.rate.total();
}

std::uint64_t
MetricsRegistry::slaViolations(const std::string &deployment) const
{
    const auto it = series_.find(deployment);
    return it == series_.end() ? 0 : it->second.slaViolations;
}

std::vector<std::string>
MetricsRegistry::deployments() const
{
    std::vector<std::string> names;
    names.reserve(series_.size());
    for (const auto &[name, s] : series_)
        names.push_back(name);
    return names;
}

} // namespace erec::cluster
