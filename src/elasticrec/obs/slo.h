#pragma once

/**
 * @file
 * SLO tracking and alert rules.
 *
 * The paper's evaluation is an SLO story — a 400 ms end-to-end SLA with
 * dense shards scaled at 65% of it (Section V) — but metrics alone only
 * answer "what is the value now". SloTracker turns registry signals
 * into *verdicts*: a small set of alert rules is evaluated once per
 * sample tick, each rule holding a breach for a configurable duration
 * before it fires (Prometheus' `for:` clause), and every
 * firing/resolved transition is recorded in a deterministic alert log
 * plus exported counters/gauges:
 *
 *   erec_alert_transitions_total{alert=...,transition=firing|resolved}
 *   erec_alert_firing{alert=...}
 *
 * An AlertRule fires when its signal exceeds a threshold. Signals
 * (SignalKind) are p95(<deployment>) in milliseconds,
 * violation_ratio(<deployment>) as a fraction (1% == 0.01),
 * qps(<deployment>), gauge(<name>) and lost_queries.
 * `gauge(<name>)` reads the metric family `<name>` of the owner's
 * obs::Registry summed over its label sets (Registry::sum), so
 * `gauge(erec_ready_replicas)` counts the Ready pods of every
 * deployment; a family not registered yet reads 0.
 *
 * The tracker is decoupled from the cluster layer: the owner supplies a
 * SignalReader callback that resolves (signal, now) -> value, so obs/
 * keeps depending only on common/.
 */

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "elasticrec/common/units.h"
#include "elasticrec/obs/metric.h"

namespace erec::obs {

enum class SignalKind
{
    P95,            //!< p95(<deployment>), milliseconds.
    ViolationRatio, //!< violations / completions, fraction in [0, 1].
    Qps,            //!< qps(<deployment>), queries per second.
    GaugeValue,     //!< gauge(<name>): family summed over labels.
    LostQueries,    //!< queries lost to pod crashes, count.
};

const char *toString(SignalKind kind);

struct SloSignal
{
    SignalKind kind = SignalKind::P95;
    /** Deployment or metric family name; empty for lost_queries. */
    std::string target;
};

struct AlertRule
{
    std::string name;
    SloSignal signal;
    /** Rule fires when the signal exceeds this (strict). */
    double threshold = 0.0;
    /** Breach must persist this long before the rule fires (0 =
     *  immediately, Prometheus `for:` semantics). */
    SimTime holdFor = 0;
};

/** One firing or resolved transition, in evaluation order. */
struct AlertEvent
{
    SimTime time = 0;
    std::string alert;
    bool firing = false; //!< true: fired; false: resolved.
    /** Signal value observed at the transition. */
    double value = 0.0;
};

class SloTracker
{
  public:
    /** Resolves a rule's signal to its current value. */
    using SignalReader = std::function<double(const SloSignal &, SimTime)>;

    explicit SloTracker(SignalReader reader);

    /** Register a rule. Rule names must be unique. */
    void addRule(AlertRule rule);

    /**
     * Mirror transitions/firing state into an exportable registry.
     * Pass nullptr to detach; the registry must outlive this object.
     */
    void bindObservability(Registry *registry);

    /**
     * Evaluate every rule at simulated time `now` (call once per sample
     * tick, with non-decreasing times within a run).
     */
    void evaluate(SimTime now);

    /** Clear alert state and the event log (new run, same rules). */
    void reset();

    bool firing(const std::string &name) const;

    /** Firing/resolved transitions in evaluation order. */
    const std::vector<AlertEvent> &events() const { return events_; }

    std::size_t ruleCount() const { return rules_.size(); }

  private:
    struct RuleState
    {
        AlertRule rule;
        bool firing = false;
        /** Time the current breach streak started; -1 = no breach. */
        SimTime breachSince = -1;
        // Resolved obs handles; null when no registry is bound.
        Counter *obsFired = nullptr;
        Counter *obsResolved = nullptr;
        Gauge *obsFiring = nullptr;
    };

    void bindRule(RuleState &rs);

    SignalReader reader_;
    Registry *obs_ = nullptr;
    std::vector<RuleState> rules_;
    std::vector<AlertEvent> events_;
};

/**
 * Alert-log JSON lines: one event per line,
 * `{"t_us":...,"alert":"...","state":"firing|resolved","value":...}`.
 */
void writeAlertJsonLines(std::ostream &os,
                         const std::vector<AlertEvent> &events);
std::string toAlertJsonLines(const std::vector<AlertEvent> &events);

/** Strict reader for writeAlertJsonLines output (ConfigError on
 *  malformed input). */
std::vector<AlertEvent> readAlertJsonLines(const std::string &text);

} // namespace erec::obs
