/**
 * @file
 * CLI of the repo's static analyzer:
 *
 *     erec_analyze --root src [--root <dir>...] \
 *         --config tools/analyze/layers.conf [--format text|json]
 *
 * Run from the repo root: roots are read relative to the current
 * directory, and each rule pack picks its files by the first path
 * component (analyze.h). Every invocation runs every pack. Exit codes:
 * 0 = clean, 1 = findings, 2 = usage error, a root outside the current
 * directory, an unreadable file or a malformed layers.conf.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "elasticrec/common/error.h"
#include "tools/analyze/analyze.h"

int
main(int argc, char **argv)
{
    std::vector<std::string> roots;
    std::string config_path;
    std::string format = "text";
    bool ok = true;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            ok = false;
        else if (arg == "--root")
            roots.push_back(argv[++i]);
        else if (arg == "--config")
            config_path = argv[++i];
        else if (arg == "--format")
            format = argv[++i];
        else
            ok = false;
    }
    if (!ok || roots.empty() || config_path.empty() ||
        (format != "text" && format != "json")) {
        std::cerr << "usage: erec_analyze --root <dir> [--root <dir>...]"
                     " --config <layers.conf> [--format text|json]\n";
        return 2;
    }

    namespace an = erec::analyze;
    try {
        const std::string cwd = std::filesystem::current_path().string();
        std::ifstream config_in(config_path);
        if (!config_in.good())
            erec::fatal("cannot read " + config_path);
        std::ostringstream config;
        config << config_in.rdbuf();
        const auto report = an::analyze(an::readTree(roots, cwd),
                                        an::parseLayerConfig(config.str()));
        if (format == "json")
            std::cout << an::renderJson(report);
        else
            (report.pass() ? std::cout : std::cerr) << an::renderText(report);
        return report.pass() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "erec_analyze: " << e.what() << "\n";
        return 2;
    }
}
