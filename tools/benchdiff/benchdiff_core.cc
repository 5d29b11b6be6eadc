#include "tools/benchdiff/benchdiff_core.h"

#include <cstdlib>
#include <sstream>

#include "elasticrec/common/error.h"

namespace erec::benchdiff {

namespace {

/** Fetch a required numeric member of a sweep entry. */
double
numberField(const JsonValue &entry, const std::string &key)
{
    const JsonValue *v = entry.find(key);
    ERC_CHECK(v != nullptr && v->kind == JsonValue::Kind::Number,
              "sweep entry lacks numeric \"" << key << "\"");
    return v->number;
}

/** Extract {key value -> entry} from a bench document's "sweep" array.
 *  Pointers alias the document, which outlives the comparison. */
std::map<std::size_t, const JsonValue *>
sweepEntries(const JsonValue &doc, const std::string &which,
             const std::string &key)
{
    const JsonValue *sweep = doc.find("sweep");
    ERC_CHECK(sweep != nullptr &&
                  sweep->kind == JsonValue::Kind::Array &&
                  !sweep->array.empty(),
              which << " bench file has no non-empty \"sweep\" array");
    std::map<std::size_t, const JsonValue *> out;
    for (const JsonValue &entry : sweep->array) {
        ERC_CHECK(entry.kind == JsonValue::Kind::Object,
                  which << " sweep entries must be objects");
        const auto value =
            static_cast<std::size_t>(numberField(entry, key));
        ERC_CHECK(out.find(value) == out.end(),
                  which << " sweep lists " << key << "=" << value
                        << " twice");
        out[value] = &entry;
        (void)numberField(entry, "qps"); // Schema check up front.
    }
    return out;
}

} // namespace

double
parseTolerance(const std::string &arg)
{
    ERC_CHECK(!arg.empty(), "empty tolerance");
    std::string num = arg;
    double scale = 1.0;
    if (num.back() == '%') {
        num.pop_back();
        scale = 0.01;
    }
    char *end = nullptr;
    const double v = std::strtod(num.c_str(), &end) * scale;
    ERC_CHECK(end == num.c_str() + num.size(),
              "bad tolerance '" << arg
                                << "' (want e.g. \"15%\" or \"0.15\")");
    ERC_CHECK(v >= 0.0 && v < 1.0,
              "tolerance must be in [0, 1), got " << v);
    return v;
}

std::pair<std::string, double>
parseMetricTolerance(const std::string &arg)
{
    const std::size_t eq = arg.find('=');
    ERC_CHECK(eq != std::string::npos && eq > 0,
              "bad metric tolerance '"
                  << arg << "' (want e.g. \"allocs_per_query=0\")");
    return {arg.substr(0, eq), parseTolerance(arg.substr(eq + 1))};
}

DiffReport
compare(const JsonValue &baseline, const JsonValue &current,
        double tolerance, const MetricTolerances &metric_tolerances,
        const std::string &key)
{
    const auto base = sweepEntries(baseline, "baseline", key);
    const auto cur = sweepEntries(current, "current", key);

    DiffReport report;
    report.tolerance = tolerance;
    report.keyName = key;
    for (const auto &[key_value, base_entry] : base) {
        PointDiff p;
        p.keyValue = key_value;
        p.baselineQps = numberField(*base_entry, "qps");
        const auto it = cur.find(key_value);
        if (it == cur.end()) {
            p.missing = true;
            p.regressed = true;
        } else {
            p.currentQps = numberField(*it->second, "qps");
            p.ratio =
                p.baselineQps > 0.0 ? p.currentQps / p.baselineQps : 0.0;
            p.regressed =
                p.currentQps < p.baselineQps * (1.0 - tolerance);
        }
        // Overridden metrics are lower-is-better: the baseline is a
        // ceiling, so a zero baseline with zero tolerance demands an
        // exact zero.
        for (const auto &[name, metric_tol] : metric_tolerances) {
            MetricDiff m;
            m.name = name;
            m.tolerance = metric_tol;
            const JsonValue *base_v = base_entry->find(name);
            ERC_CHECK(base_v != nullptr &&
                          base_v->kind == JsonValue::Kind::Number,
                      "baseline sweep entry (" << key << "="
                          << key_value << ") lacks numeric \"" << name
                          << "\" named by --metric-tolerance");
            m.baseline = base_v->number;
            const JsonValue *cur_v =
                it == cur.end() ? nullptr : it->second->find(name);
            if (cur_v == nullptr ||
                cur_v->kind != JsonValue::Kind::Number) {
                m.missing = true;
                m.regressed = true;
            } else {
                m.current = cur_v->number;
                m.regressed =
                    m.current > m.baseline * (1.0 + metric_tol);
            }
            p.regressed = p.regressed || m.regressed;
            p.metrics.push_back(std::move(m));
        }
        report.pass = report.pass && !p.regressed;
        report.points.push_back(std::move(p));
    }
    return report;
}

std::string
formatReport(const DiffReport &report)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(1);
    for (const PointDiff &p : report.points) {
        out << report.keyName << "=" << p.keyValue << ": baseline "
            << p.baselineQps << " qps";
        if (p.missing) {
            out << ", MISSING from current run -> FAIL\n";
            continue;
        }
        const bool qps_regressed =
            p.currentQps < p.baselineQps * (1.0 - report.tolerance);
        out << ", current " << p.currentQps << " qps ("
            << p.ratio * 100.0 << "% of baseline) -> "
            << (qps_regressed ? "REGRESSED" : "ok") << "\n";
        for (const MetricDiff &m : p.metrics) {
            out << "    " << m.name << ": baseline " << m.baseline;
            if (m.missing) {
                out << ", MISSING from current entry -> FAIL\n";
                continue;
            }
            out << ", current " << m.current << " (tolerance "
                << m.tolerance * 100.0 << "%) -> "
                << (m.regressed ? "REGRESSED" : "ok") << "\n";
        }
    }
    out << "benchdiff: "
        << (report.pass ? "PASS" : "FAIL (regression beyond ")
        << (report.pass ? ""
                        : std::to_string(static_cast<int>(
                              report.tolerance * 100.0 + 0.5)) +
                              "% QPS tolerance or a metric override)")
        << "\n";
    return out.str();
}

} // namespace erec::benchdiff
