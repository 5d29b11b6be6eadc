/**
 * @file
 * promcheck: validate telemetry files emitted by the obs exporters.
 *
 *   promcheck FILE...
 *
 * `.prom` files are checked against the Prometheus text exposition
 * format (including histogram invariants); `_alerts.jsonl` files are
 * re-read through the alert-log importer and other `.jsonl` files
 * through the trace importer, both of which reject malformed lines.
 * Trace files are additionally validated against the erec_trace/v3
 * schema (span ends after start, unique non-zero ids, parents resolve
 * and the root span bounds every span on completed traces) and
 * `_perfetto.json` files against the Chrome trace-event envelope
 * (complete events only, sorted timestamps). Exit status is non-zero
 * when any file fails.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "elasticrec/obs/export.h"
#include "elasticrec/obs/perfetto.h"
#include "elasticrec/obs/trace_schema.h"
#include "tools/promcheck/prom_parser.h"

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

bool
checkPromFile(const std::string &path, const std::string &text)
{
    const auto result = erec::tools::parsePrometheusText(text);
    if (!result.ok) {
        for (const auto &e : result.errors)
            std::cerr << path << ": " << e << "\n";
        return false;
    }
    std::cout << path << ": OK (" << result.samples.size()
              << " samples, " << result.types.size() << " families)\n";
    return true;
}

bool
checkTraceFile(const std::string &path, const std::string &text)
{
    try {
        const auto events = erec::obs::readTraceJsonLines(text);
        const auto errors = erec::obs::validateTraceSchema(events);
        if (!errors.empty()) {
            for (const auto &e : errors)
                std::cerr << path << ": "
                          << erec::obs::kTraceSchemaVersion << ": " << e
                          << "\n";
            return false;
        }
        std::cout << path << ": OK (" << events.size() << " spans, "
                  << erec::obs::kTraceSchemaVersion << ")\n";
        return true;
    } catch (const std::exception &e) {
        std::cerr << path << ": " << e.what() << "\n";
        return false;
    }
}

bool
checkPerfettoFile(const std::string &path, const std::string &text)
{
    const auto errors = erec::obs::validatePerfettoJson(text);
    if (!errors.empty()) {
        for (const auto &e : errors)
            std::cerr << path << ": " << e << "\n";
        return false;
    }
    std::cout << path << ": OK (perfetto trace-event JSON)\n";
    return true;
}

bool
checkAlertFile(const std::string &path, const std::string &text)
{
    try {
        const auto events = erec::obs::readAlertJsonLines(text);
        std::cout << path << ": OK (" << events.size()
                  << " alert transitions)\n";
        return true;
    } catch (const std::exception &e) {
        std::cerr << path << ": " << e.what() << "\n";
        return false;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: promcheck FILE...\n"
                  << "  validates .prom (Prometheus text) and .jsonl "
                     "(trace) telemetry files\n";
        return 2;
    }
    bool ok = true;
    for (int i = 1; i < argc; ++i) {
        const std::string path = argv[i];
        std::ifstream in(path);
        if (!in) {
            std::cerr << path << ": cannot open\n";
            ok = false;
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        if (endsWith(path, "_alerts.jsonl"))
            ok = checkAlertFile(path, buf.str()) && ok;
        else if (endsWith(path, ".jsonl"))
            ok = checkTraceFile(path, buf.str()) && ok;
        else if (endsWith(path, "_perfetto.json"))
            ok = checkPerfettoFile(path, buf.str()) && ok;
        else
            ok = checkPromFile(path, buf.str()) && ok;
    }
    return ok ? 0 : 1;
}
