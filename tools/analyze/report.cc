/**
 * @file
 * One run over every pack, and the one text/JSON renderer.
 */

#include <algorithm>
#include <sstream>
#include <tuple>

#include "tools/analyze/analyze.h"

namespace erec::analyze {

Report
analyze(const FileSet &files, const LayerConfig &layers)
{
    const std::vector<SourceFile> sources = parseSources(files);
    Report report;
    report.files = files.size();
    lintPack(sources, &report);
    archPack(sources, layers, &report);
    hotpathPack(sources, &report);
    concPack(sources, &report);
    std::stable_sort(report.findings.begin(), report.findings.end(),
                     [](const Finding &a, const Finding &b) {
                         return std::tie(a.file, a.line, a.rule) <
                                std::tie(b.file, b.line, b.rule);
                     });
    return report;
}

std::string
renderText(const Report &report)
{
    std::ostringstream oss;
    std::map<std::string, std::size_t> per_pack;
    for (const Finding &f : report.findings) {
        ++per_pack[f.pack];
        if (f.file.empty())
            oss << "layers.conf";
        else
            oss << f.file << ":" << f.line;
        oss << ": [" << f.rule << "] " << f.message << "\n";
        if (!f.path.empty())
            oss << "    " << (f.function.empty() ? "path" : "in " + f.function)
                << ": " << join(f.path, " -> ") << "\n";
    }
    oss << "erec_analyze: " << report.files << " files; arch: "
        << report.includeEdges << " include edges; hotpath: "
        << report.functions << " functions, " << report.hotRoots
        << " hot roots, " << report.reachable << " reachable; conc: "
        << report.mutexes << " mutexes, " << report.lockSites
        << " lock sites, " << report.lockEdges.size() << " lock edges; "
        << report.findings.size() << " finding"
        << (report.findings.size() == 1 ? "" : "s");
    const char *sep = " (";
    for (const auto &[pack, count] : per_pack) {
        oss << sep << pack << " " << count;
        sep = ", ";
    }
    oss << (per_pack.empty() ? "" : ")") << ": "
        << (report.pass() ? "PASS" : "FAIL") << "\n";
    return oss.str();
}

std::string
renderJson(const Report &report)
{
    std::ostringstream oss;
    oss << "{\n";
    oss << "  \"schema\": \"erec_analyze/v1\",\n";
    oss << "  \"pass\": " << (report.pass() ? "true" : "false") << ",\n";
    oss << "  \"files\": " << report.files << ",\n";
    oss << "  \"include_edges\": " << report.includeEdges << ",\n";
    oss << "  \"functions\": " << report.functions << ",\n";
    oss << "  \"hot_roots\": " << report.hotRoots << ",\n";
    oss << "  \"reachable\": " << report.reachable << ",\n";
    oss << "  \"mutexes\": " << report.mutexes << ",\n";
    oss << "  \"lock_sites\": " << report.lockSites << ",\n";
    oss << "  \"lock_edges\": " << report.lockEdges.size() << ",\n";
    oss << "  \"findings\": [";
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        const Finding &f = report.findings[i];
        oss << (i == 0 ? "\n" : ",\n");
        oss << "    {\n";
        oss << "      \"pack\": \"" << f.pack << "\",\n";
        oss << "      \"rule\": \"" << f.rule << "\",\n";
        oss << "      \"file\": \"" << jsonEscape(f.file) << "\",\n";
        oss << "      \"line\": " << f.line << ",\n";
        oss << "      \"function\": \"" << jsonEscape(f.function)
            << "\",\n";
        oss << "      \"path\": [";
        for (std::size_t j = 0; j < f.path.size(); ++j)
            oss << (j == 0 ? "\"" : ", \"") << jsonEscape(f.path[j]) << "\"";
        oss << "],\n";
        oss << "      \"message\": \"" << jsonEscape(f.message) << "\"\n";
        oss << "    }";
    }
    oss << (report.findings.empty() ? "]\n" : "\n  ]\n");
    oss << "}\n";
    return oss.str();
}

} // namespace erec::analyze
