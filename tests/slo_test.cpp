// Tests for the SLO alert engine: hold-for firing semantics,
// transition counters/log, and the alert JSONL round trip.

#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/common/units.h"
#include "elasticrec/obs/metric.h"
#include "elasticrec/obs/slo.h"

namespace {

using erec::SimTime;
using erec::obs::AlertEvent;
using erec::obs::AlertRule;
using erec::obs::Registry;
using erec::obs::SignalKind;
using erec::obs::SloSignal;
using erec::obs::SloTracker;
namespace units = erec::units;

/** `p95(dense) > 100 ms`, held for 3 s. */
const AlertRule kDenseP95{
    "p95", {SignalKind::P95, "dense"}, 100.0, 3 * units::kSecond};

/** `lost_queries > 0`, firing at once. */
const AlertRule kLost{"lost", {SignalKind::LostQueries, ""}, 0.0, 0};

/** Tracker wired to a mutable map of signal values. */
struct Harness
{
    std::map<std::string, double> values;
    SloTracker tracker{[this](const SloSignal &signal, SimTime) {
        const std::string key =
            std::string(toString(signal.kind)) + ":" + signal.target;
        const auto it = values.find(key);
        return it == values.end() ? 0.0 : it->second;
    }};
};

TEST(SloTracker, FiresAfterHoldAndResolves)
{
    Harness h;
    h.tracker.addRule(kDenseP95);

    h.values["p95:dense"] = 150.0;
    h.tracker.evaluate(1 * units::kSecond);
    EXPECT_FALSE(h.tracker.firing("p95")) << "hold-for not elapsed yet";
    h.tracker.evaluate(2 * units::kSecond);
    EXPECT_FALSE(h.tracker.firing("p95"));
    h.tracker.evaluate(4 * units::kSecond);
    EXPECT_TRUE(h.tracker.firing("p95")) << "breach held for 3s";

    h.values["p95:dense"] = 50.0;
    h.tracker.evaluate(5 * units::kSecond);
    EXPECT_FALSE(h.tracker.firing("p95"));

    ASSERT_EQ(h.tracker.events().size(), 2u);
    EXPECT_EQ(h.tracker.events()[0].alert, "p95");
    EXPECT_TRUE(h.tracker.events()[0].firing);
    EXPECT_EQ(h.tracker.events()[0].time, 4 * units::kSecond);
    EXPECT_DOUBLE_EQ(h.tracker.events()[0].value, 150.0);
    EXPECT_FALSE(h.tracker.events()[1].firing);
    EXPECT_EQ(h.tracker.events()[1].time, 5 * units::kSecond);
}

TEST(SloTracker, InterruptedBreachRestartsHold)
{
    Harness h;
    h.tracker.addRule(kDenseP95);

    h.values["p95:dense"] = 150.0;
    h.tracker.evaluate(0);
    h.tracker.evaluate(2 * units::kSecond);
    h.values["p95:dense"] = 50.0; // dip below before the hold elapses
    h.tracker.evaluate(3 * units::kSecond);
    h.values["p95:dense"] = 150.0;
    h.tracker.evaluate(4 * units::kSecond);
    h.tracker.evaluate(6 * units::kSecond);
    EXPECT_FALSE(h.tracker.firing("p95")) << "hold restarted at t=4s";
    h.tracker.evaluate(7 * units::kSecond);
    EXPECT_TRUE(h.tracker.firing("p95"));
}

TEST(SloTracker, ZeroHoldFiresImmediately)
{
    Harness h;
    h.tracker.addRule(kLost);
    h.values["lost_queries:"] = 1.0;
    h.tracker.evaluate(7 * units::kSecond);
    EXPECT_TRUE(h.tracker.firing("lost"));
}

TEST(SloTracker, ExportsTransitionCountersAndFiringGauge)
{
    Harness h;
    Registry registry;
    h.tracker.addRule(kLost);
    h.tracker.bindObservability(&registry);

    h.values["lost_queries:"] = 2.0;
    h.tracker.evaluate(units::kSecond);
    EXPECT_EQ(registry.value("erec_alert_firing", {{"alert", "lost"}}),
              1.0);
    EXPECT_EQ(registry.value("erec_alert_transitions_total",
                             {{"alert", "lost"},
                              {"transition", "firing"}}),
              1.0);

    h.values["lost_queries:"] = 0.0;
    h.tracker.evaluate(2 * units::kSecond);
    EXPECT_EQ(registry.value("erec_alert_firing", {{"alert", "lost"}}),
              0.0);
    EXPECT_EQ(registry.value("erec_alert_transitions_total",
                             {{"alert", "lost"},
                              {"transition", "resolved"}}),
              1.0);
}

TEST(SloTracker, ResetClearsStateButKeepsRules)
{
    Harness h;
    h.tracker.addRule(kLost);
    h.values["lost_queries:"] = 1.0;
    h.tracker.evaluate(units::kSecond);
    ASSERT_TRUE(h.tracker.firing("lost"));

    h.tracker.reset();
    EXPECT_FALSE(h.tracker.firing("lost"));
    EXPECT_TRUE(h.tracker.events().empty());
    EXPECT_EQ(h.tracker.ruleCount(), 1u);

    h.tracker.evaluate(units::kSecond);
    EXPECT_TRUE(h.tracker.firing("lost")) << "rules survive reset";
}

TEST(SloTracker, RejectsDuplicateRuleNames)
{
    Harness h;
    h.tracker.addRule(kLost);
    AlertRule again = kLost;
    again.threshold = 1.0;
    EXPECT_THROW(h.tracker.addRule(again), erec::ConfigError);
}

TEST(AlertJson, RoundTrips)
{
    const std::vector<AlertEvent> events = {
        {5 * units::kSecond, "frontend-p95", true, 312.5},
        {9 * units::kSecond, "frontend-p95", false, 87.25},
        {12 * units::kSecond, "lost-queries", true, 3.0},
    };
    const std::string text = erec::obs::toAlertJsonLines(events);
    const auto parsed = erec::obs::readAlertJsonLines(text);
    ASSERT_EQ(parsed.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(parsed[i].time, events[i].time);
        EXPECT_EQ(parsed[i].alert, events[i].alert);
        EXPECT_EQ(parsed[i].firing, events[i].firing);
        EXPECT_DOUBLE_EQ(parsed[i].value, events[i].value);
    }
    // Writing the parsed events again is byte-identical.
    EXPECT_EQ(erec::obs::toAlertJsonLines(parsed), text);
}

TEST(AlertJson, RoundTripsNamesThatNeedEscaping)
{
    const std::vector<AlertEvent> events = {
        {units::kMillisecond, "a\"b\\c", true, 1.5},
        {2 * units::kMillisecond, "tab\there", false, 0.0},
    };
    const std::string text = erec::obs::toAlertJsonLines(events);
    EXPECT_NE(text.find("\"alert\":\"a\\\"b\\\\c\""), std::string::npos)
        << text;
    const auto parsed = erec::obs::readAlertJsonLines(text);
    ASSERT_EQ(parsed.size(), events.size());
    EXPECT_EQ(parsed[0].alert, "a\"b\\c");
    EXPECT_EQ(parsed[1].alert, "tab\there");
    EXPECT_EQ(erec::obs::toAlertJsonLines(parsed), text);
}

TEST(AlertJson, RejectsMalformedLines)
{
    EXPECT_THROW(erec::obs::readAlertJsonLines("{\"alert\":\"x\"}"),
                 erec::ConfigError);
    EXPECT_THROW(
        erec::obs::readAlertJsonLines(
            "{\"t_us\":1,\"alert\":\"x\",\"state\":\"bad\",\"value\":0}"),
        erec::ConfigError);
}

TEST(AlertJson, AcceptsExactlyItsFourKeys)
{
    const std::string good =
        "{\"t_us\":1,\"alert\":\"x\",\"state\":\"firing\",\"value\":0}\n";
    EXPECT_EQ(erec::obs::readAlertJsonLines(good).size(), 1u);
    EXPECT_THROW(erec::obs::readAlertJsonLines(
                     "{\"t_us\":1,\"alert\":\"x\",\"state\":\"firing\","
                     "\"value\":0,\"extra\":1}\n"),
                 erec::ConfigError);
    EXPECT_THROW(erec::obs::readAlertJsonLines(
                     "{\"t_us\":1.5,\"alert\":\"x\",\"state\":\"firing\","
                     "\"value\":0}\n"),
                 erec::ConfigError);
    // A truncated line is an error, not a prefix match.
    EXPECT_THROW(erec::obs::readAlertJsonLines(
                     good + "{\"t_us\":2,\"alert\":\"x\",\"state\":"),
                 erec::ConfigError);
}

} // namespace
