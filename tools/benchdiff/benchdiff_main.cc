/**
 * @file
 * CLI of the perf-regression gate:
 *
 *     erec_benchdiff baseline.json current.json [--tolerance 15%]
 *         [--metric-tolerance allocs_per_query=0 ...]
 *         [--key threads]
 *
 * Exit codes: 0 = within tolerance, 1 = regression (or baseline point
 * missing from the current run), 2 = usage / unreadable / malformed
 * input. CI treats non-zero as a failed gate.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/benchdiff/benchdiff_core.h"

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good()) {
        std::cerr << "erec_benchdiff: cannot read " << path << "\n";
        std::exit(2);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
usage()
{
    std::cerr << "usage: erec_benchdiff <baseline.json> <current.json>"
                 " [--tolerance 15%|0.15]"
                 " [--metric-tolerance <name>=<tol> ...]"
                 " [--key <sweep member, default threads>]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path, current_path, tolerance_arg = "15%";
    std::string key = "threads";
    std::vector<std::string> metric_args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tolerance" && i + 1 < argc) {
            tolerance_arg = argv[++i];
        } else if (arg == "--metric-tolerance" && i + 1 < argc) {
            metric_args.push_back(argv[++i]);
        } else if (arg == "--key" && i + 1 < argc) {
            key = argv[++i];
        } else if (baseline_path.empty()) {
            baseline_path = arg;
        } else if (current_path.empty()) {
            current_path = arg;
        } else {
            usage();
        }
    }
    if (baseline_path.empty() || current_path.empty())
        usage();

    try {
        const double tolerance =
            erec::benchdiff::parseTolerance(tolerance_arg);
        erec::benchdiff::MetricTolerances metric_tolerances;
        for (const auto &m : metric_args)
            metric_tolerances.insert(
                erec::benchdiff::parseMetricTolerance(m));
        const auto baseline = erec::parseJson(readFile(baseline_path));
        const auto current = erec::parseJson(readFile(current_path));
        const auto report =
            erec::benchdiff::compare(baseline, current, tolerance,
                                     metric_tolerances, key);
        std::cout << erec::benchdiff::formatReport(report);
        return report.pass ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "erec_benchdiff: " << e.what() << "\n";
        return 2;
    }
}
