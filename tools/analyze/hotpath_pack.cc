/**
 * @file
 * The hotpath pack: ERC_HOT_PATH roots, a breadth-first walk of the
 * src/ call graph (parent pointers give each finding its call path),
 * and a per-line pattern scan of every reachable body.
 */

#include <algorithm>
#include <cctype>
#include <limits>
#include <queue>

#include "tools/analyze/analyze.h"

namespace erec::analyze {

namespace {

/** Read the identifier ending just before `end` (exclusive), walking
 *  backwards; returns "" when the preceding token is not an ident. */
std::string
identBefore(const std::string &text, std::size_t end)
{
    std::size_t j = end;
    while (j > 0 && std::isspace(static_cast<unsigned char>(text[j - 1])))
        --j;
    std::size_t k = j;
    while (k > 0 && isIdentChar(text[k - 1]))
        --k;
    return text.substr(k, j - k);
}

struct Rule
{
    const char *kind;
    std::regex pattern;
};

const std::vector<Rule> &
rules()
{
    static const std::vector<Rule> kRules = {
        {"heap-alloc",
         std::regex(R"(\bnew\b|\bmake_unique\b|\bmake_shared\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\()")},
        {"container-growth",
         std::regex(R"((\.|->)\s*(push_back|emplace_back|push_front|emplace_front|resize|reserve|insert|emplace)\s*\()")},
        {"string-alloc",
         std::regex(R"(\bto_string\s*\(|\bstd\s*::\s*string\s*[({]|\bostringstream\b|\bstringstream\b)")},
        {"blocking-io", blockingIoPattern()},
        {"throw", std::regex(R"(\bthrow\b)")},
        {"mutex-lock",
         std::regex(R"(\block_guard\b|\bunique_lock\b|\bscoped_lock\b|(\.|->)\s*lock\s*\()")},
    };
    return kRules;
}

/** Names an ERC_HOT_PATH annotates: the identifier directly before
 *  the next `(` after the token, on its line or a later one. */
void
collectRoots(const SourceFile &sf, std::set<std::string> *roots)
{
    static const std::regex kRoot(R"(\bERC_HOT_PATH\b)");
    const auto &lines = sf.codeLines;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        std::smatch m;
        if (!std::regex_search(lines[li], m, kRoot))
            continue;
        std::size_t start =
            static_cast<std::size_t>(m.position(0) + m.length(0));
        for (std::size_t lj = li; lj < lines.size(); ++lj, start = 0) {
            const std::size_t paren = lines[lj].find('(', start);
            if (paren == std::string::npos)
                continue;
            const std::string name = identBefore(lines[lj], paren);
            if (!name.empty() && !isCallKeyword(name))
                roots->insert(name);
            break;
        }
    }
}

} // namespace

const std::regex &
blockingIoPattern()
{
    static const std::regex kBlockingIo(
        R"(\bstd\s*::\s*(cout|cerr|clog|cin)\b|\b(printf|fprintf|fputs|fwrite|fread|fopen|fflush)\s*\(|\bifstream\b|\bofstream\b|\bfstream\b|\bgetline\s*\()");
    return kBlockingIo;
}

void
hotpathPack(const std::vector<SourceFile> &sources, Report *report)
{
    const CallGraph graph = buildCallGraph(sources, "ERC_HOT_PATH_ALLOW");
    const auto &nodes = graph.nodes;
    std::set<std::string> root_names;
    for (const SourceFile &sf : sources) {
        if (topDir(sf.path) == "src")
            collectRoots(sf, &root_names);
    }
    report->functions = nodes.size();
    report->hotRoots = root_names.size();

    // Multi-source BFS with parent pointers for call paths.
    constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> parent(nodes.size(), kNone);
    std::vector<bool> visited(nodes.size(), false);
    std::queue<std::size_t> frontier;
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        if (root_names.count(nodes[ni].def.name) && !nodes[ni].exempt) {
            visited[ni] = true;
            frontier.push(ni);
        }
    }
    while (!frontier.empty()) {
        const std::size_t ni = frontier.front();
        frontier.pop();
        for (const auto &[callee, line] : nodes[ni].callees) {
            (void)line;
            if (visited[callee])
                continue;
            visited[callee] = true;
            parent[callee] = ni;
            frontier.push(callee);
        }
    }
    report->reachable = static_cast<std::size_t>(
        std::count(visited.begin(), visited.end(), true));

    // Scan every reachable body.
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        if (!visited[ni])
            continue;
        const CallNode &node = nodes[ni];
        const SourceFile &sf = *node.file;
        const bool runtime_file = moduleOf(sf.path) == "runtime";
        std::vector<std::string> chain;
        for (std::size_t cur = ni; cur != kNone; cur = parent[cur])
            chain.push_back(nodes[cur].def.display);
        std::reverse(chain.begin(), chain.end());

        for (int li = node.def.bodyBeginLine;
             li <= node.def.bodyEndLine &&
             li <= static_cast<int>(sf.codeLines.size());
             ++li) {
            if (node.allowLines.count(li) != 0)
                continue;
            const auto index = static_cast<std::size_t>(li - 1);
            for (const Rule &rule : rules()) {
                if ((runtime_file && std::string(rule.kind) == "mutex-lock") ||
                    !std::regex_search(sf.codeLines[index], rule.pattern))
                    continue;
                report->findings.push_back(
                    {"hotpath", rule.kind, sf.path, li, node.def.display,
                     chain, trim(sf.rawLines[index])});
            }
        }
    }
}

} // namespace erec::analyze
