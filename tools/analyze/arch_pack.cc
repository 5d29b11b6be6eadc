/**
 * @file
 * The arch pack: the first-party include graph, checked against the
 * layer DAG of layers.conf and for cycles.
 */

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

#include "elasticrec/common/error.h"
#include "tools/analyze/analyze.h"

namespace erec::analyze {

namespace {

std::string
dirName(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? "" : path.substr(0, slash);
}

bool
validModuleName(const std::string &name)
{
    return !name.empty() &&
           std::all_of(name.begin(), name.end(), [](unsigned char c) {
               return std::isalnum(c) || c == '_' || c == '-';
           });
}

/**
 * Resolve a quoted include against the scanned tree: relative to the
 * including file's directory first (bench_util.h style), then under
 * src/ (the "elasticrec/<module>/<header>.h" convention), then from
 * the repo root ("tools/analyze/analyze.h" style). Empty when the
 * include is not a scanned first-party file.
 */
std::string
resolveInclude(const std::set<std::string> &paths,
               const std::string &includer, const std::string &include)
{
    const std::string dir = dirName(includer);
    for (const std::string &candidate :
         {normalizePath(dir.empty() ? include : dir + "/" + include),
          normalizePath("src/" + include), normalizePath(include)}) {
        if (paths.count(candidate))
            return candidate;
    }
    return "";
}

} // namespace

std::vector<IncludeDirective>
extractIncludes(const SourceFile &file)
{
    static const std::regex kDirective(R"(^\s*#\s*include\b)");
    static const std::regex kPath(
        R"(^\s*#\s*include\s*([<"])([^">]+)[">])");
    std::vector<IncludeDirective> directives;
    for (std::size_t i = 0; i < file.strippedLines.size(); ++i) {
        std::smatch match;
        if (std::regex_search(file.strippedLines[i], kDirective) &&
            std::regex_search(file.rawLines[i], match, kPath))
            directives.push_back({static_cast<int>(i + 1), match[2].str(),
                                  match[1].str() == "<"});
    }
    return directives;
}

bool
LayerConfig::declares(const std::string &module) const
{
    return direct.count(module) > 0;
}

bool
LayerConfig::allows(const std::string &from, const std::string &to) const
{
    if (from == to || wildcard.count(from))
        return true;
    const auto it = closure.find(from);
    return it != closure.end() && it->second.count(to) > 0;
}

LayerConfig
parseLayerConfig(const std::string &text)
{
    LayerConfig config;
    const auto lines = splitLines(text);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string line = lines[i].substr(0, lines[i].find('#'));
        if (trim(line).empty())
            continue;
        const std::string where =
            "layers.conf line " + std::to_string(i + 1);

        const std::size_t colon = line.find(':');
        ERC_CHECK(colon != std::string::npos,
                  where << ": expected `module: dep dep ...`, got `"
                        << lines[i] << "`");
        std::istringstream name_in(line.substr(0, colon));
        std::string module, excess;
        name_in >> module;
        ERC_CHECK(validModuleName(module) && !(name_in >> excess),
                  where << ": invalid module name before `:`");
        ERC_CHECK(!config.declares(module),
                  where << ": duplicate entry for module `" << module
                        << "`");

        config.order.push_back(module);
        auto &deps = config.direct[module];
        std::istringstream deps_in(line.substr(colon + 1));
        std::string dep;
        while (deps_in >> dep) {
            if (dep == "*") {
                config.wildcard.insert(module);
                continue;
            }
            ERC_CHECK(validModuleName(dep),
                      where << ": invalid dependency name `" << dep
                            << "`");
            ERC_CHECK(dep != module,
                      where << ": module `" << module
                            << "` lists itself as a dependency");
            deps.push_back(dep);
        }
    }

    for (const auto &[module, deps] : config.direct) {
        for (const auto &dep : deps) {
            ERC_CHECK(config.declares(dep),
                      "layers.conf: module `"
                          << module << "` depends on `" << dep
                          << "`, which has no entry of its own");
        }
    }

    // Transitive closure by DFS; the declarations themselves must form
    // a DAG or "allowed" would mean everything for every cycle member.
    for (const auto &module : config.order) {
        std::set<std::string> seen;
        std::vector<std::string> stack = config.direct.at(module);
        while (!stack.empty()) {
            const std::string dep = stack.back();
            stack.pop_back();
            ERC_CHECK(dep != module,
                      "layers.conf: dependency cycle through module `"
                          << module << "`");
            if (!seen.insert(dep).second)
                continue;
            for (const auto &next : config.direct.at(dep))
                stack.push_back(next);
        }
        config.closure[module] = std::move(seen);
    }
    return config;
}

void
archPack(const std::vector<SourceFile> &sources, const LayerConfig &layers,
         Report *report)
{
    std::set<std::string> paths;
    for (const SourceFile &sf : sources)
        paths.insert(sf.path);

    Digraph graph;
    std::set<std::string> undeclared;
    for (const SourceFile &sf : sources) {
        const std::string from = moduleOf(sf.path);
        if (!layers.declares(from))
            undeclared.insert(from);
        auto &targets = graph[sf.path];
        for (const auto &directive : extractIncludes(sf)) {
            const std::string target =
                directive.angled
                    ? ""
                    : resolveInclude(paths, sf.path, directive.path);
            if (target.empty() || std::find(targets.begin(), targets.end(),
                                            target) != targets.end())
                continue;
            targets.push_back(target);
            ++report->includeEdges;

            // layer-edge: a cross-module include outside the closure
            // of the including module's declared dependencies.
            const std::string to = moduleOf(target);
            if (from == to || !layers.declares(from) ||
                !layers.declares(to) || layers.allows(from, to))
                continue;
            const auto &closure = layers.closure.at(from);
            const std::string allowed =
                join({closure.begin(), closure.end()}, ", ");
            report->findings.push_back(
                {"arch", "layer-edge", sf.path, directive.line, "",
                 {from, to},
                 "`" + from + "` may not include `" + to + "` (" +
                     directive.path + "); allowed for `" + from + "`: " +
                     (allowed.empty() ? "<nothing>" : allowed) +
                     " — add the edge to layers.conf only if the DAG "
                     "stays acyclic, else forward-declare or move code "
                     "down a layer"});
        }
    }

    // undeclared-module: one finding per module missing from the
    // config, so adding a module forces a layering decision.
    for (const auto &module : undeclared) {
        report->findings.push_back(
            {"arch", "undeclared-module", "", 0, "", {},
             "module `" + module +
                 "` has no layers.conf entry; declare its allowed "
                 "dependencies (or `*`) before adding code to it"});
    }

    for (const Cycle &cycle : findCycles(graph)) {
        report->findings.push_back(
            {"arch", "include-cycle", cycle.members.front(), 0, "",
             cycle.path,
             "include cycle: " + join(cycle.path, " -> ") +
                 " — break it with a forward declaration or by "
                 "splitting the shared types into a lower header"});
    }
}

} // namespace erec::analyze
