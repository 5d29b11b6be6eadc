#include "elasticrec/obs/report.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "elasticrec/common/table_printer.h"
#include "elasticrec/common/units.h"
#include "elasticrec/obs/sketch.h"

namespace erec::obs {

namespace {

struct StageAccumulator
{
    std::uint64_t spans = 0;
    double totalMs = 0.0;
    QuantileSketch sketch;
};

} // namespace

std::string
stageOf(const std::string &span_name)
{
    const std::size_t first = span_name.find('/');
    if (first == std::string::npos)
        return span_name;
    const std::size_t last = span_name.rfind('/');
    if (last == first)
        return span_name; // two segments: already a stage name
    const std::string head = span_name.substr(0, first);
    if (head == "sparse" || head == "rpc")
        return head + span_name.substr(last);
    return span_name;
}

AttributionReport
attributeStages(const std::vector<SpanTree> &trees)
{
    AttributionReport report;
    // Ordered map: the final largest-first sort breaks ties by the
    // deterministic iteration order of the stage names.
    std::map<std::string, StageAccumulator> stages;
    QuantileSketch e2e;

    for (const SpanTree &tree : trees) {
        ++report.tracedQueries;
        if (!tree.complete()) {
            // A lost/in-flight query has no root span: every one of
            // its spans belongs to an unfinished query, so none may
            // feed the stage sketches. They surface in openSpans
            // instead of vanishing.
            ++report.lostTraces;
            report.openSpans += tree.nodes.size();
            continue;
        }
        ++report.completedTraces;
        const SpanEvent &root = tree.nodes[tree.root].event;
        const double latency_ms =
            units::toMillis(root.endUs - root.startUs);
        report.endToEndTotalMs += latency_ms;
        e2e.insert(latency_ms);
        // The root span is the end-to-end latency itself; every other
        // span is a stage.
        for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
            if (i == tree.root)
                continue;
            const SpanEvent &span = tree.nodes[i].event;
            if (span.endUs < span.startUs) {
                // Malformed span: exclude the bogus negative duration.
                ++report.openSpans;
                continue;
            }
            StageAccumulator &acc = stages[stageOf(spanName(span.name))];
            const double ms = units::toMillis(span.endUs - span.startUs);
            ++acc.spans;
            acc.totalMs += ms;
            acc.sketch.insert(ms);
        }
    }

    if (report.completedTraces > 0) {
        report.meanEndToEndMs =
            report.endToEndTotalMs /
            static_cast<double>(report.completedTraces);
        report.p95EndToEndMs = e2e.quantile(0.95);
    }
    for (const auto &[name, acc] : stages) {
        StageStats s;
        s.stage = name;
        s.spans = acc.spans;
        s.totalMs = acc.totalMs;
        s.meanMs = acc.totalMs / static_cast<double>(acc.spans);
        s.p95Ms = acc.sketch.quantile(0.95);
        s.shareOfEndToEnd = report.endToEndTotalMs > 0
                                ? acc.totalMs / report.endToEndTotalMs
                                : 0.0;
        report.stages.push_back(std::move(s));
    }
    std::stable_sort(report.stages.begin(), report.stages.end(),
                     [](const StageStats &a, const StageStats &b) {
                         return a.totalMs > b.totalMs;
                     });
    return report;
}

namespace {

/**
 * Stage chain bounding one completed trace's latency: from the root
 * span, repeatedly descend into the child whose end time is largest
 * (ties: later start, then smaller span id — all deterministic).
 */
std::string
criticalChainOf(const SpanTree &tree)
{
    std::string chain;
    std::size_t node = tree.root;
    while (true) {
        if (!chain.empty())
            chain += " > ";
        chain += stageOf(spanName(tree.nodes[node].event.name));
        const std::vector<std::size_t> &children =
            tree.nodes[node].children;
        if (children.empty())
            return chain;
        // Children are in span-id order, so keeping the first of equal
        // candidates breaks the final tie toward the smaller id.
        std::size_t next = children.front();
        for (const std::size_t c : children) {
            const SpanEvent &cand = tree.nodes[c].event;
            const SpanEvent &best = tree.nodes[next].event;
            if (cand.endUs > best.endUs ||
                (cand.endUs == best.endUs && cand.startUs > best.startUs))
                next = c;
        }
        node = next;
    }
}

} // namespace

CriticalPathReport
analyzeCriticalPaths(const std::vector<SpanTree> &trees)
{
    CriticalPathReport report;
    struct ChainAccumulator
    {
        std::uint64_t count = 0;
        double totalMs = 0.0;
    };
    std::map<std::string, ChainAccumulator> chains;
    for (const SpanTree &tree : trees) {
        if (!tree.complete())
            continue;
        ++report.analyzedTraces;
        const SpanEvent &root = tree.nodes[tree.root].event;
        ChainAccumulator &acc = chains[criticalChainOf(tree)];
        ++acc.count;
        acc.totalMs += units::toMillis(root.endUs - root.startUs);
    }
    for (const auto &[signature, acc] : chains) {
        CriticalPathStat stat;
        stat.chain = signature;
        stat.count = acc.count;
        stat.totalMs = acc.totalMs;
        stat.meanMs = acc.totalMs / static_cast<double>(acc.count);
        report.chains.push_back(std::move(stat));
    }
    std::stable_sort(report.chains.begin(), report.chains.end(),
                     [](const CriticalPathStat &a,
                        const CriticalPathStat &b) {
                         return a.count > b.count;
                     });
    return report;
}

void
writeCriticalPathTable(std::ostream &os, const CriticalPathReport &report)
{
    os << "Critical paths (" << report.analyzedTraces
       << " completed traced quer"
       << (report.analyzedTraces == 1 ? "y" : "ies") << ")\n";
    if (report.chains.empty()) {
        os << "  no completed traces with spans; nothing bounds "
              "completion\n";
        return;
    }
    TablePrinter t({"critical path", "queries", "mean e2e ms"});
    for (const CriticalPathStat &s : report.chains)
        t.addRow({s.chain,
                  TablePrinter::num(static_cast<std::int64_t>(s.count)),
                  TablePrinter::num(s.meanMs, 2)});
    t.print(os);
    os << "  (path = stage chain whose span end times bound each "
          "query's completion)\n";
}

std::vector<SloVerdict>
summarizeAlerts(const std::vector<AlertEvent> &events)
{
    std::map<std::string, SloVerdict> by_alert;
    for (const AlertEvent &e : events) {
        SloVerdict &v = by_alert[e.alert];
        v.alert = e.alert;
        if (e.firing)
            ++v.fired;
        else
            ++v.resolved;
        v.firingAtEnd = e.firing;
    }
    std::vector<SloVerdict> verdicts;
    verdicts.reserve(by_alert.size());
    for (auto &[name, v] : by_alert)
        verdicts.push_back(std::move(v));
    return verdicts;
}

void
writeStageTable(std::ostream &os, const AttributionReport &report)
{
    os << "Per-stage latency attribution (" << report.tracedQueries
       << " traced queries, " << report.completedTraces << " completed";
    if (report.lostTraces > 0)
        os << ", " << report.lostTraces << " lost";
    if (report.openSpans > 0)
        os << ", " << report.openSpans << " open spans excluded";
    os << ")\n";
    if (report.completedTraces == 0) {
        os << "  no completed traces; run with tracing enabled "
              "(--metrics-out) to attribute stages\n";
        return;
    }
    os << "  end-to-end: mean "
       << TablePrinter::num(report.meanEndToEndMs, 2) << " ms, p95 "
       << TablePrinter::num(report.p95EndToEndMs, 2) << " ms\n";
    TablePrinter t({"stage", "spans", "total ms", "mean ms", "p95 ms",
                    "share of e2e"});
    for (const StageStats &s : report.stages)
        t.addRow({s.stage,
                  TablePrinter::num(static_cast<std::int64_t>(s.spans)),
                  TablePrinter::num(s.totalMs, 1),
                  TablePrinter::num(s.meanMs, 2),
                  TablePrinter::num(s.p95Ms, 2),
                  TablePrinter::percent(s.shareOfEndToEnd)});
    t.print(os);
    os << "  (overlapped stages — dense compute vs. the gather path — "
          "can sum past 100%)\n";
}

void
writeSloVerdicts(std::ostream &os,
                 const std::vector<SloVerdict> &verdicts)
{
    if (verdicts.empty()) {
        os << "SLO verdict: PASS (no alert rule fired)\n";
        return;
    }
    os << "SLO verdict: " << verdicts.size() << " alert rule"
       << (verdicts.size() == 1 ? "" : "s") << " fired\n";
    TablePrinter t({"alert", "fired", "resolved", "state at end"});
    for (const SloVerdict &v : verdicts)
        t.addRow({v.alert,
                  TablePrinter::num(static_cast<std::int64_t>(v.fired)),
                  TablePrinter::num(
                      static_cast<std::int64_t>(v.resolved)),
                  v.firingAtEnd ? "FIRING" : "resolved"});
    t.print(os);
}

void
writeAlertTimeline(std::ostream &os,
                   const std::vector<AlertEvent> &events)
{
    if (events.empty()) {
        os << "Alert timeline: empty\n";
        return;
    }
    os << "Alert timeline (" << events.size() << " transition"
       << (events.size() == 1 ? "" : "s") << "):\n";
    for (const AlertEvent &e : events)
        os << "  [" << TablePrinter::num(units::toSeconds(e.time), 1)
           << "s] " << e.alert << " "
           << (e.firing ? "FIRING" : "resolved") << " (value "
           << TablePrinter::num(e.value, 3) << ")\n";
}

} // namespace erec::obs
