#include "elasticrec/obs/slo.h"

#include <ostream>
#include <sstream>
#include <utility>

#include "elasticrec/common/error.h"
#include "elasticrec/common/json.h"

namespace erec::obs {

const char *
toString(SignalKind kind)
{
    switch (kind) {
      case SignalKind::P95:
        return "p95";
      case SignalKind::ViolationRatio:
        return "violation_ratio";
      case SignalKind::Qps:
        return "qps";
      case SignalKind::GaugeValue:
        return "gauge";
      case SignalKind::LostQueries:
        return "lost_queries";
    }
    return "?";
}

SloTracker::SloTracker(SignalReader reader) : reader_(std::move(reader))
{
    ERC_CHECK(reader_ != nullptr, "SloTracker needs a signal reader");
}

void
SloTracker::addRule(AlertRule rule)
{
    for (const RuleState &rs : rules_)
        ERC_CHECK(rs.rule.name != rule.name,
                  "duplicate alert rule '" << rule.name << "'");
    RuleState rs;
    rs.rule = std::move(rule);
    if (obs_ != nullptr)
        bindRule(rs);
    rules_.push_back(std::move(rs));
}

void
SloTracker::bindRule(RuleState &rs)
{
    rs.obsFired = &obs_->counter(
        "erec_alert_transitions_total",
        "Alert state transitions (firing and resolved).",
        {{"alert", rs.rule.name}, {"transition", "firing"}});
    rs.obsResolved = &obs_->counter(
        "erec_alert_transitions_total",
        "Alert state transitions (firing and resolved).",
        {{"alert", rs.rule.name}, {"transition", "resolved"}});
    rs.obsFiring =
        &obs_->gauge("erec_alert_firing",
                     "1 while the alert rule is firing, else 0.",
                     {{"alert", rs.rule.name}});
    rs.obsFiring->set(rs.firing ? 1.0 : 0.0);
}

void
SloTracker::bindObservability(Registry *registry)
{
    obs_ = registry;
    for (RuleState &rs : rules_) {
        if (obs_ == nullptr) {
            rs.obsFired = nullptr;
            rs.obsResolved = nullptr;
            rs.obsFiring = nullptr;
        } else {
            bindRule(rs);
        }
    }
}

void
SloTracker::evaluate(SimTime now)
{
    for (RuleState &rs : rules_) {
        const double value = reader_(rs.rule.signal, now);
        const bool breach = value > rs.rule.threshold;
        if (!breach) {
            rs.breachSince = -1;
            if (rs.firing) {
                rs.firing = false;
                events_.push_back({now, rs.rule.name, false, value});
                if (rs.obsResolved != nullptr)
                    rs.obsResolved->inc();
                if (rs.obsFiring != nullptr)
                    rs.obsFiring->set(0.0);
            }
            continue;
        }
        if (rs.breachSince < 0)
            rs.breachSince = now;
        if (!rs.firing && now - rs.breachSince >= rs.rule.holdFor) {
            rs.firing = true;
            events_.push_back({now, rs.rule.name, true, value});
            if (rs.obsFired != nullptr)
                rs.obsFired->inc();
            if (rs.obsFiring != nullptr)
                rs.obsFiring->set(1.0);
        }
    }
}

void
SloTracker::reset()
{
    events_.clear();
    for (RuleState &rs : rules_) {
        rs.firing = false;
        rs.breachSince = -1;
        if (rs.obsFiring != nullptr)
            rs.obsFiring->set(0.0);
    }
}

bool
SloTracker::firing(const std::string &name) const
{
    for (const RuleState &rs : rules_)
        if (rs.rule.name == name)
            return rs.firing;
    return false;
}

namespace {

std::string
formatAlertValue(double v)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << v;
    return oss.str();
}

} // namespace

void
writeAlertJsonLines(std::ostream &os, const std::vector<AlertEvent> &events)
{
    for (const AlertEvent &e : events) {
        os << "{\"t_us\":" << e.time << ",\"alert\":\""
           << jsonEscape(e.alert) << "\",\"state\":\""
           << (e.firing ? "firing" : "resolved")
           << "\",\"value\":" << formatAlertValue(e.value) << "}\n";
    }
}

std::string
toAlertJsonLines(const std::vector<AlertEvent> &events)
{
    std::ostringstream oss;
    writeAlertJsonLines(oss, events);
    return oss.str();
}

std::vector<AlertEvent>
readAlertJsonLines(const std::string &text)
{
    std::vector<AlertEvent> events;
    forEachJsonLine(text, "alert json", [&](const JsonValue &rec) {
        rec.requireKeys({"t_us", "alert", "state", "value"});
        const std::string &state = rec.at("state").asString();
        ERC_CHECK(state == "firing" || state == "resolved",
                  "bad state '" << state << "'");
        events.push_back({rec.at("t_us").asInt64(),
                          rec.at("alert").asString(), state == "firing",
                          rec.at("value").asDouble()});
    });
    return events;
}

} // namespace erec::obs
