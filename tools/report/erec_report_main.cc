/**
 * @file
 * erec_report: check a `--metrics-out` dump and turn it into a
 * human-readable run report.
 *
 *   erec_report DIR [--stem STEM] [--fail-on-alert NAME[,NAME...]]
 *
 * For every `<stem>.prom` in DIR (or just `--stem`), prints a run
 * summary from the Prometheus export, a per-stage latency attribution
 * table and a critical-path breakdown from `<stem>_traces.jsonl`
 * (when tracing was on; simulator and serving-stack dumps alike), and
 * the SLO verdict plus alert timeline from `<stem>_alerts.jsonl`.
 *
 * Every file is checked on the way, and a bad one is named on stderr:
 * the `.prom` against the Prometheus text format (histogram
 * invariants included), the trace and alert logs through their strict
 * readers, the traces against the erec_trace/v3 schema (span ends
 * after start, unique non-zero ids, parents resolve and the root span
 * bounds every span on completed traces), and `<stem>_perfetto.json`
 * against the Chrome trace-event profile (complete events, one per
 * line, sorted timestamps). Without `--stem`, a trace, alert or
 * Perfetto file in DIR whose `<stem>.prom` is missing is an error too.
 *
 * `--fail-on-alert` names alert rules that must not have fired in any
 * reported run. The exit status is 1 when one did or when a telemetry
 * file is malformed, which is how CI gates the smoke dumps on both
 * "every file is well formed" and "steady traffic loses no queries".
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "elasticrec/common/table_printer.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/obs/perfetto.h"
#include "elasticrec/obs/report.h"
#include "elasticrec/obs/trace_schema.h"
#include "tools/report/prom_parser.h"

namespace {

namespace fs = std::filesystem;
using erec::TablePrinter;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Print `errors` against `path` on stderr; true when there are none. */
bool
printErrors(const fs::path &path, const std::vector<std::string> &errors,
            const std::string &schema = "")
{
    for (const auto &e : errors)
        std::cerr << path.filename().string() << ": "
                  << (schema.empty() ? "" : schema + ": ") << e << "\n";
    return errors.empty();
}

/** Trace, alert and Perfetto files in `dir` whose stem has no `.prom`
 *  (each named on stderr); true when there are none. */
bool
checkOrphans(const fs::path &dir, const std::vector<std::string> &stems)
{
    bool ok = true;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        for (const std::string_view suffix :
             {"_traces.jsonl", "_alerts.jsonl", "_perfetto.json"}) {
            if (!name.ends_with(suffix))
                continue;
            const std::string stem =
                name.substr(0, name.size() - suffix.size());
            if (std::find(stems.begin(), stems.end(), stem) ==
                stems.end()) {
                std::cerr << name << ": no matching " << stem
                          << ".prom\n";
                ok = false;
            }
        }
    }
    return ok;
}

/**
 * The frontend deployment aggregates every query's end-to-end latency;
 * sparse shards log their completions with latency 0. The deployment
 * with the largest latency sum is therefore the frontend.
 */
std::string
frontendDeployment(const erec::tools::PromParseResult &prom)
{
    std::string best;
    double best_sum = -1.0;
    for (const auto &s : prom.samples) {
        if (s.name != "erec_latency_ms_sum")
            continue;
        const auto dep = s.labels.find("deployment");
        if (dep == s.labels.end())
            continue;
        if (s.value > best_sum) {
            best_sum = s.value;
            best = dep->second;
        }
    }
    return best;
}

/** Report one run stem; returns false on malformed telemetry. */
bool
reportStem(const fs::path &dir, const std::string &stem,
           std::vector<erec::obs::AlertEvent> *all_events)
{
    std::cout << "\n=== run " << stem << " ===\n";
    const fs::path prom_path = dir / (stem + ".prom");
    const auto prom = erec::tools::parsePrometheusText(readFile(prom_path));
    if (!printErrors(prom_path, prom.errors))
        return false;

    const std::string frontend = frontendDeployment(prom);
    const std::map<std::string, std::string> fe_labels = {
        {"deployment", frontend}};
    const double arrivals = prom.value("erec_arrivals_total");
    const double completed =
        prom.value("erec_latency_ms_count", fe_labels);
    const double violations =
        prom.value("erec_sla_violations_total", fe_labels);
    const double lost = prom.value("erec_lost_queries");
    std::cout << "frontend deployment: "
              << (frontend.empty() ? "?" : frontend) << "\n"
              << "arrivals " << TablePrinter::num(arrivals, 0)
              << ", completed " << TablePrinter::num(completed, 0)
              << ", SLA violations " << TablePrinter::num(violations, 0)
              << " ("
              << TablePrinter::percent(
                     completed > 0 ? violations / completed : 0.0)
              << "), lost queries " << TablePrinter::num(lost, 0)
              << "\n\n";

    const fs::path traces_path = dir / (stem + "_traces.jsonl");
    if (fs::exists(traces_path)) {
        try {
            const auto events =
                erec::obs::readTraceJsonLines(readFile(traces_path));
            if (!printErrors(traces_path,
                             erec::obs::validateTraceSchema(events),
                             erec::obs::kTraceSchemaVersion))
                return false;
            const auto trees = erec::obs::buildSpanTrees(events);
            erec::obs::writeStageTable(
                std::cout, erec::obs::attributeStages(trees));
            std::cout << "\n";
            erec::obs::writeCriticalPathTable(
                std::cout, erec::obs::analyzeCriticalPaths(trees));
        } catch (const std::exception &e) {
            std::cerr << traces_path.filename().string() << ": "
                      << e.what() << "\n";
            return false;
        }
    } else {
        std::cout << "Per-stage latency attribution: no trace file "
                     "(tracing was off)\n";
    }
    std::cout << "\n";

    const fs::path perfetto_path = dir / (stem + "_perfetto.json");
    if (fs::exists(perfetto_path) &&
        !printErrors(perfetto_path,
                     erec::obs::validatePerfettoJson(
                         readFile(perfetto_path))))
        return false;

    const fs::path alerts_path = dir / (stem + "_alerts.jsonl");
    std::vector<erec::obs::AlertEvent> events;
    if (fs::exists(alerts_path)) {
        try {
            events = erec::obs::readAlertJsonLines(readFile(alerts_path));
        } catch (const std::exception &e) {
            std::cerr << alerts_path.filename().string() << ": "
                      << e.what() << "\n";
            return false;
        }
    }
    erec::obs::writeSloVerdicts(std::cout,
                                erec::obs::summarizeAlerts(events));
    erec::obs::writeAlertTimeline(std::cout, events);
    all_events->insert(all_events->end(), events.begin(), events.end());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir_arg;
    std::string stem_filter;
    std::vector<std::string> fail_on;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--stem" && i + 1 < argc) {
            stem_filter = argv[++i];
        } else if (arg == "--fail-on-alert" && i + 1 < argc) {
            std::istringstream names(argv[++i]);
            std::string name;
            while (std::getline(names, name, ','))
                if (!name.empty())
                    fail_on.push_back(name);
        } else if (dir_arg.empty() && !arg.empty() && arg[0] != '-') {
            dir_arg = arg;
        } else {
            std::cerr << "unknown argument '" << arg << "'\n";
            return 2;
        }
    }
    if (dir_arg.empty()) {
        std::cerr
            << "usage: erec_report DIR [--stem STEM] "
               "[--fail-on-alert NAME[,NAME...]]\n"
            << "  renders the telemetry dumped by --metrics-out DIR\n";
        return 2;
    }
    const fs::path dir(dir_arg);
    if (!fs::is_directory(dir)) {
        std::cerr << dir_arg << ": not a directory\n";
        return 2;
    }

    std::vector<std::string> stems;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".prom")
            stems.push_back(entry.path().stem().string());
    }
    std::sort(stems.begin(), stems.end());
    if (!stem_filter.empty()) {
        if (std::find(stems.begin(), stems.end(), stem_filter) ==
            stems.end()) {
            std::cerr << "no " << stem_filter << ".prom in " << dir_arg
                      << "\n";
            return 2;
        }
        stems = {stem_filter};
    }
    if (stems.empty()) {
        std::cerr << dir_arg << ": no .prom files\n";
        return 2;
    }

    bool ok = stem_filter.empty() ? checkOrphans(dir, stems) : true;
    std::vector<erec::obs::AlertEvent> all_events;
    for (const auto &stem : stems)
        ok = reportStem(dir, stem, &all_events) && ok;

    for (const auto &name : fail_on) {
        std::uint64_t fired = 0;
        for (const auto &e : all_events)
            if (e.firing && e.alert == name)
                ++fired;
        if (fired > 0) {
            std::cerr << "\nFAIL: alert '" << name << "' fired " << fired
                      << " time" << (fired == 1 ? "" : "s")
                      << " (--fail-on-alert)\n";
            ok = false;
        } else {
            std::cout << "\ngate: alert '" << name << "' never fired\n";
        }
    }
    return ok ? 0 : 1;
}
