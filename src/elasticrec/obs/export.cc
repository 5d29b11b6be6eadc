#include "elasticrec/obs/export.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "elasticrec/common/error.h"
#include "elasticrec/common/json.h"
#include "elasticrec/obs/perfetto.h"

namespace erec::obs {

namespace {

/**
 * Render a sample value: integers without a fraction (counters and
 * bucket counts stay grep-able), everything else with full round-trip
 * precision.
 */
std::string
formatValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    if (v == std::rint(v) && std::abs(v) < 1e15) {
        std::ostringstream oss;
        oss << static_cast<long long>(v);
        return oss.str();
    }
    std::ostringstream oss;
    oss << std::setprecision(std::numeric_limits<double>::max_digits10)
        << v;
    return oss.str();
}

std::string
escapeHelp(const std::string &help)
{
    std::string out;
    out.reserve(help.size());
    for (char c : help) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

/** Render `{k="v",...}`, optionally with an extra trailing label. */
std::string
renderLabels(const Labels &labels, const std::string &extra_key = "",
             const std::string &extra_value = "")
{
    std::string out;
    for (const auto &[k, v] : labels) {
        out += out.empty() ? "{" : ",";
        out += k;
        out += "=\"";
        out += escapeLabelValue(v);
        out += '"';
    }
    if (!extra_key.empty()) {
        out += out.empty() ? "{" : ",";
        out += extra_key;
        out += "=\"";
        out += escapeLabelValue(extra_value);
        out += '"';
    }
    if (!out.empty())
        out += '}';
    return out;
}

/** One erec_trace/v3 line: exactly the seven keys the writer emits. */
SpanEvent
traceEventFrom(const JsonValue &rec)
{
    rec.requireKeys({"trace_id", "span_id", "parent_id", "name",
                     "start_us", "end_us", "arg"});
    SpanEvent e;
    e.traceId = rec.at("trace_id").asUint64();
    e.spanId = rec.at("span_id").asUint64();
    e.parentId = rec.at("parent_id").asUint64();
    e.name = internSpanName(rec.at("name").asString());
    e.startUs = rec.at("start_us").asInt64();
    e.endUs = rec.at("end_us").asInt64();
    e.arg = rec.at("arg").asUint64();
    return e;
}

} // namespace

std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

void
writePrometheusText(std::ostream &os, const Registry &registry)
{
    for (const auto &[name, fam] : registry.families()) {
        // A family can outlive its last child (Registry::remove); a
        // header with no samples is useless and trips strict parsers.
        if (fam.children.empty())
            continue;
        os << "# HELP " << name << ' ' << escapeHelp(fam.help) << '\n';
        os << "# TYPE " << name << ' ' << toString(fam.kind) << '\n';
        for (const auto &[key, child] : fam.children) {
            switch (fam.kind) {
              case MetricKind::Counter:
                os << name << renderLabels(child.labels) << ' '
                   << formatValue(child.counter->value()) << '\n';
                break;
              case MetricKind::Gauge:
                os << name << renderLabels(child.labels) << ' '
                   << formatValue(child.gauge->value()) << '\n';
                break;
              case MetricKind::Histogram: {
                const Histogram &h = *child.histogram;
                std::uint64_t cumulative = 0;
                for (std::size_t i = 0; i < h.bounds().size(); ++i) {
                    cumulative += h.bucketCount(i);
                    os << name << "_bucket"
                       << renderLabels(child.labels, "le",
                                       formatValue(h.bounds()[i]))
                       << ' ' << cumulative << '\n';
                }
                os << name << "_bucket"
                   << renderLabels(child.labels, "le", "+Inf") << ' '
                   << h.count() << '\n';
                os << name << "_sum" << renderLabels(child.labels) << ' '
                   << formatValue(h.sum()) << '\n';
                os << name << "_count" << renderLabels(child.labels)
                   << ' ' << h.count() << '\n';
                break;
              }
            }
        }
    }
}

std::string
toPrometheusText(const Registry &registry)
{
    std::ostringstream oss;
    writePrometheusText(oss, registry);
    return oss.str();
}

void
writeTraceJsonLines(std::ostream &os, const std::vector<SpanEvent> &events)
{
    for (const SpanEvent &e : events)
        os << "{\"trace_id\":" << e.traceId << ",\"span_id\":" << e.spanId
           << ",\"parent_id\":" << e.parentId << ",\"name\":\""
           << jsonEscape(spanName(e.name))
           << "\",\"start_us\":" << e.startUs << ",\"end_us\":" << e.endUs
           << ",\"arg\":" << e.arg << "}\n";
}

std::string
toTraceJsonLines(const std::vector<SpanEvent> &events)
{
    std::ostringstream oss;
    writeTraceJsonLines(oss, events);
    return oss.str();
}

std::vector<SpanEvent>
readTraceJsonLines(const std::string &text)
{
    std::vector<SpanEvent> events;
    forEachJsonLine(text, "trace json", [&](const JsonValue &rec) {
        events.push_back(traceEventFrom(rec));
    });
    return events;
}

void
writeMetricsFiles(const std::string &dir, const std::string &stem,
                  const Registry &registry,
                  const ExportArtifacts &artifacts)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(fs::path(dir), ec);
    ERC_CHECK(!ec, "cannot create metrics directory '" << dir << "'");

    const fs::path prom = fs::path(dir) / (stem + ".prom");
    std::ofstream prom_os(prom);
    ERC_CHECK(prom_os.good(),
              "cannot open '" << prom.string() << "' for writing");
    writePrometheusText(prom_os, registry);

    if (artifacts.traces != nullptr) {
        const fs::path jsonl = fs::path(dir) / (stem + "_traces.jsonl");
        std::ofstream trace_os(jsonl);
        ERC_CHECK(trace_os.good(),
                  "cannot open '" << jsonl.string() << "' for writing");
        writeTraceJsonLines(trace_os, *artifacts.traces);
        const fs::path json = fs::path(dir) / (stem + "_perfetto.json");
        std::ofstream perfetto_os(json);
        ERC_CHECK(perfetto_os.good(),
                  "cannot open '" << json.string() << "' for writing");
        writePerfettoJson(perfetto_os, *artifacts.traces);
    }
    if (artifacts.alerts != nullptr) {
        const fs::path jsonl = fs::path(dir) / (stem + "_alerts.jsonl");
        std::ofstream alert_os(jsonl);
        ERC_CHECK(alert_os.good(),
                  "cannot open '" << jsonl.string() << "' for writing");
        writeAlertJsonLines(alert_os, *artifacts.alerts);
    }
}

} // namespace erec::obs
