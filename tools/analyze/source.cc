#include "tools/analyze/source.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "elasticrec/common/error.h"

namespace erec::analyze {

namespace fs = std::filesystem;

namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isCxxFile(const fs::path &path)
{
    const auto ext = path.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".h" || ext == ".hpp";
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    ERC_CHECK(in.good(), "cannot read " << path.generic_string());
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= path.size()) {
        const std::size_t slash = path.find('/', start);
        const std::size_t end =
            slash == std::string::npos ? path.size() : slash;
        parts.push_back(path.substr(start, end - start));
        if (slash == std::string::npos)
            break;
        start = slash + 1;
    }
    return parts;
}

/** 1-based line number of offset `pos` in `text`. */
int
lineOf(const std::string &text, std::size_t pos)
{
    return 1 + static_cast<int>(std::count(
                   text.begin(),
                   text.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(pos, text.size())),
                   '\n'));
}

/** Skip a balanced `open`...`close` group starting at `i` (which must
 *  point at `open`). Returns the index one past the closer, or npos. */
std::size_t
skipBalanced(const std::string &text, std::size_t i, char open, char close)
{
    int depth = 0;
    const std::size_t n = text.size();
    for (; i < n; ++i) {
        if (text[i] == open)
            ++depth;
        else if (text[i] == close && --depth == 0)
            return i + 1;
    }
    return std::string::npos;
}

std::size_t
skipWs(const std::string &text, std::size_t i)
{
    const std::size_t n = text.size();
    while (i < n && std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    return i;
}

/**
 * Trailing-token walk after a candidate's parameter list. Returns the
 * index of the body's `{` when the candidate is a definition, npos
 * otherwise (declaration, variable, macro invocation, ...).
 */
std::size_t
findBodyBrace(const std::string &text, std::size_t pos)
{
    const std::size_t n = text.size();
    for (;;) {
        pos = skipWs(text, pos);
        if (pos >= n)
            return std::string::npos;
        const char c = text[pos];
        if (c == '{')
            return pos;
        if (c == ';')
            return std::string::npos;
        if (isIdentStart(c)) {
            // const / noexcept / override / final / mutable / an
            // attribute-like macro — any ident, optionally followed by
            // a balanced `(...)` group (e.g. noexcept(...), ERC_...).
            std::size_t j = pos;
            while (j < n && isIdentChar(text[j]))
                ++j;
            pos = skipWs(text, j);
            if (pos < n && text[pos] == '(') {
                pos = skipBalanced(text, pos, '(', ')');
                if (pos == std::string::npos)
                    return std::string::npos;
            }
            continue;
        }
        if (c == '-' && pos + 1 < n && text[pos + 1] == '>') {
            // Trailing return type: scan to `{` or `;` at paren depth 0.
            int depth = 0;
            for (std::size_t j = pos + 2; j < n; ++j) {
                const char d = text[j];
                if (d == '(')
                    ++depth;
                else if (d == ')')
                    --depth;
                else if (depth == 0 && d == '{')
                    return j;
                else if (depth == 0 && d == ';')
                    return std::string::npos;
            }
            return std::string::npos;
        }
        if (c == ':' && (pos + 1 >= n || text[pos + 1] != ':')) {
            // Constructor initializer list:
            //   : member(expr), Base{...}, other(x) {
            std::size_t j = pos + 1;
            for (;;) {
                j = skipWs(text, j);
                if (j >= n || !isIdentStart(text[j]))
                    return std::string::npos;
                while (j < n && isIdentChar(text[j]))
                    ++j;
                // Qualified base (Ns::Base) or template args.
                while (j + 1 < n && text[j] == ':' && text[j + 1] == ':') {
                    j = skipWs(text, j + 2);
                    while (j < n && isIdentChar(text[j]))
                        ++j;
                }
                j = skipWs(text, j);
                if (j < n && text[j] == '<') {
                    j = skipBalanced(text, j, '<', '>');
                    if (j == std::string::npos)
                        return std::string::npos;
                    j = skipWs(text, j);
                }
                if (j >= n || (text[j] != '(' && text[j] != '{'))
                    return std::string::npos;
                j = text[j] == '(' ? skipBalanced(text, j, '(', ')')
                                   : skipBalanced(text, j, '{', '}');
                if (j == std::string::npos)
                    return std::string::npos;
                j = skipWs(text, j);
                if (j < n && text[j] == ',') {
                    ++j;
                    continue;
                }
                break;
            }
            j = skipWs(text, j);
            if (j < n && text[j] == '{')
                return j;
            return std::string::npos;
        }
        // `= default`, `= delete`, `= 0`, an initializer, or anything
        // else: not a function definition.
        return std::string::npos;
    }
}

/** Qualified spelling of the identifier ending at `identEnd`
 *  (exclusive): walks back over `Ns::Class::` prefixes. */
std::string
qualifiedName(const std::string &text, std::size_t identBegin,
              std::size_t identEnd)
{
    std::size_t k = identBegin;
    for (;;) {
        std::size_t j = k;
        while (j > 0 && std::isspace(static_cast<unsigned char>(text[j - 1])))
            --j;
        if (j < 2 || text[j - 1] != ':' || text[j - 2] != ':')
            break;
        j -= 2;
        while (j > 0 && std::isspace(static_cast<unsigned char>(text[j - 1])))
            --j;
        // Skip template args on the qualifier (Tpl<T>::f).
        if (j > 0 && text[j - 1] == '>') {
            int depth = 0;
            while (j > 0) {
                --j;
                if (text[j] == '>')
                    ++depth;
                else if (text[j] == '<' && --depth == 0)
                    break;
            }
            while (j > 0 &&
                   std::isspace(static_cast<unsigned char>(text[j - 1])))
                --j;
        }
        std::size_t m = j;
        while (m > 0 && isIdentChar(text[m - 1]))
            --m;
        if (m == j)
            break;
        k = m;
    }
    std::string out = text.substr(k, identEnd - k);
    out.erase(std::remove_if(out.begin(), out.end(),
                             [](char c) {
                                 return std::isspace(
                                     static_cast<unsigned char>(c));
                             }),
              out.end());
    return out;
}

/** Every function definition in stripped, preprocessor-blanked code. */
std::vector<FunctionDef>
extractFunctions(const std::string &code)
{
    std::vector<FunctionDef> defs;
    const std::size_t n = code.size();
    std::size_t i = 0;
    while (i < n) {
        if (!isIdentStart(code[i])) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < n && isIdentChar(code[j]))
            ++j;
        const std::string word = code.substr(i, j - i);
        std::size_t probe = skipWs(code, j);

        if (word == "operator") {
            // Consume the operator symbol (or conversion type) up to
            // the parameter list so the body is skipped as a unit.
            std::size_t k = probe;
            if (k + 1 < n && code[k] == '(' && code[k + 1] == ')')
                k = skipWs(code, k + 2); // operator()
            else
                while (k < n && code[k] != '(' && code[k] != ';' &&
                       code[k] != '{')
                    ++k;
            if (k >= n || code[k] != '(') {
                i = j;
                continue;
            }
            probe = k;
        } else if (probe >= n || code[probe] != '(' ||
                   isCallKeyword(word)) {
            i = j;
            continue;
        }

        const std::size_t after_params =
            skipBalanced(code, probe, '(', ')');
        const std::size_t brace = after_params == std::string::npos
                                      ? std::string::npos
                                      : findBodyBrace(code, after_params);
        const std::size_t after_body =
            brace == std::string::npos
                ? std::string::npos
                : skipBalanced(code, brace, '{', '}');
        if (after_body == std::string::npos) {
            i = j;
            continue;
        }
        FunctionDef def;
        def.name = word;
        def.display =
            word == "operator" ? word : qualifiedName(code, i, j);
        def.line = lineOf(code, i);
        def.bodyBeginLine = lineOf(code, brace);
        def.bodyEndLine = lineOf(code, after_body - 1);
        defs.push_back(std::move(def));
        i = after_body;
    }
    return defs;
}

} // namespace

std::string
normalizePath(const std::string &path)
{
    std::vector<std::string> parts;
    for (const std::string &part : splitPath(path)) {
        if (part == "..") {
            if (!parts.empty() && parts.back() != "..")
                parts.pop_back();
            else
                parts.push_back(part);
        } else if (!part.empty() && part != ".") {
            parts.push_back(part);
        }
    }
    return join(parts, "/");
}

std::string
repoRelative(const std::string &path, const std::string &cwd)
{
    fs::path p = fs::path(path).lexically_normal();
    if (p.is_absolute())
        p = p.lexically_relative(fs::path(cwd).lexically_normal());
    const std::string rel = normalizePath(p.generic_string());
    ERC_CHECK(!p.empty() && rel != ".." && rel.rfind("../", 0) != 0,
              "`" << path << "` lies outside the current directory "
                  << cwd << "; run from the repo root");
    return rel;
}

FileSet
readTree(const std::vector<std::string> &roots, const std::string &cwd)
{
    FileSet files;
    for (const std::string &root : roots) {
        const std::string rel = repoRelative(root, cwd);
        if (fs::is_regular_file(root)) {
            files[rel] = readFile(root);
            continue;
        }
        ERC_CHECK(fs::is_directory(root),
                  "no such file or directory: " << root);
        for (const auto &entry : fs::recursive_directory_iterator(root)) {
            if (entry.is_regular_file() && isCxxFile(entry.path()))
                files[repoRelative(entry.path().string(), cwd)] =
                    readFile(entry.path());
        }
    }
    return files;
}

std::string
topDir(const std::string &path)
{
    return splitPath(path).front();
}

bool
isHeaderPath(const std::string &path)
{
    const std::string ext = fs::path(path).extension().string();
    return ext == ".h" || ext == ".hpp";
}

std::string
moduleOf(const std::string &path)
{
    const auto parts = splitPath(normalizePath(path));
    if (parts.size() >= 3 && parts[0] == "src" && parts[1] == "elasticrec")
        return parts[2];
    return parts.front();
}

std::vector<std::string>
splitLines(const std::string &content)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < content.size()) {
        std::size_t nl = content.find('\n', start);
        if (nl == std::string::npos)
            nl = content.size();
        lines.push_back(content.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i)
        out += (i == 0 ? "" : sep) + parts[i];
    return out;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::ostringstream oss;
                oss << "\\u00" << std::hex << (c < 16 ? "0" : "")
                    << static_cast<int>(c);
                out += oss.str();
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

namespace {

/**
 * Blank out comments, string literals and char literals (raw strings
 * included), preserving newlines so findings keep exact line numbers.
 */
std::string
stripCommentsAndStrings(const std::string &content)
{
    std::string out;
    out.reserve(content.size());
    enum class State { Code, LineComment, BlockComment, String, Char };
    State state = State::Code;

    auto emit = [&out](char c) {
        out.push_back(c == '\n' || c == '\t' ? c : ' ');
    };

    std::size_t i = 0;
    const std::size_t n = content.size();
    while (i < n) {
        const char c = content[i];
        const char next = i + 1 < n ? content[i + 1] : '\0';
        switch (state) {
          case State::Code:
            if (c == '/' && (next == '/' || next == '*')) {
                state = next == '/' ? State::LineComment
                                    : State::BlockComment;
                emit(c);
                emit(next);
                i += 2;
            } else if (c == 'R' && next == '"' &&
                       (i == 0 || !isIdentChar(content[i - 1]))) {
                // Raw string literal: R"delim( ... )delim"
                const std::size_t paren = content.find('(', i + 2);
                if (paren == std::string::npos) {
                    emit(c);
                    ++i;
                    break;
                }
                const std::string closer =
                    ")" + content.substr(i + 2, paren - (i + 2)) + "\"";
                const std::size_t close = content.find(closer, paren + 1);
                const std::size_t end = close == std::string::npos
                                            ? n
                                            : close + closer.size();
                for (; i < end; ++i)
                    emit(content[i]);
            } else if (c == '"' || c == '\'') {
                state = c == '"' ? State::String : State::Char;
                emit(c);
                ++i;
            } else {
                out.push_back(c);
                ++i;
            }
            break;
          case State::LineComment:
            if (c == '\n')
                state = State::Code;
            emit(c);
            ++i;
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Code;
                emit(c);
                emit(next);
                i += 2;
            } else {
                emit(c);
                ++i;
            }
            break;
          case State::String:
          case State::Char: {
            const char quote = state == State::String ? '"' : '\'';
            if (c == '\\' && i + 1 < n) {
                emit(c);
                emit(next);
                i += 2;
            } else {
                if (c == quote)
                    state = State::Code;
                emit(c);
                ++i;
            }
            break;
          }
        }
    }
    return out;
}

/**
 * Blank preprocessor directives and every `\` continuation line of
 * them in already-stripped text, preserving newlines, so
 * `#define ERC_HOT_PATH` never registers as an annotation and macro
 * bodies never contribute calls.
 */
std::string
blankPreprocessorLines(const std::string &stripped)
{
    std::string out = stripped;
    const std::size_t n = out.size();
    bool continued = false; // Previous line was a directive ending in `\`.
    for (std::size_t start = 0; start < n;) {
        std::size_t end = out.find('\n', start);
        if (end == std::string::npos)
            end = n;
        std::size_t first = start;
        while (first < end &&
               std::isspace(static_cast<unsigned char>(out[first])))
            ++first;
        if (continued || (first < end && out[first] == '#')) {
            std::size_t last = end;
            while (last > start &&
                   std::isspace(static_cast<unsigned char>(out[last - 1])))
                --last;
            continued = last > start && out[last - 1] == '\\';
            std::fill(out.begin() + static_cast<std::ptrdiff_t>(start),
                      out.begin() + static_cast<std::ptrdiff_t>(end), ' ');
        }
        start = end + 1;
    }
    return out;
}

} // namespace

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isCallKeyword(const std::string &word)
{
    static const std::set<std::string> kKeywords{
        "if",       "for",     "while",   "switch",  "catch",
        "return",   "sizeof",  "alignof", "alignas", "decltype",
        "new",      "delete",  "throw",   "co_await", "co_return",
        "co_yield", "static_assert", "noexcept", "typeid", "assert",
    };
    return kKeywords.count(word) != 0;
}

SourceFile
parseSource(const std::string &path, const std::string &content)
{
    SourceFile sf;
    sf.path = path;
    sf.rawLines = splitLines(content);
    sf.stripped = stripCommentsAndStrings(content);
    sf.strippedLines = splitLines(sf.stripped);
    sf.code = blankPreprocessorLines(sf.stripped);
    sf.codeLines = splitLines(sf.code);
    sf.functions = extractFunctions(sf.code);
    return sf;
}

std::vector<SourceFile>
parseSources(const FileSet &files)
{
    std::vector<SourceFile> out;
    out.reserve(files.size());
    for (const auto &[path, content] : files)
        out.push_back(parseSource(path, content));
    return out;
}

CallGraph
buildCallGraph(const std::vector<SourceFile> &sources,
               const std::string &waiver)
{
    CallGraph graph;
    const std::regex marker(waiver + R"(\(\s*")");
    for (const SourceFile &sf : sources) {
        if (topDir(sf.path) != "src")
            continue;
        const std::size_t first_node = graph.nodes.size();
        for (const FunctionDef &def : sf.functions) {
            graph.byName[def.name].push_back(graph.nodes.size());
            graph.nodes.push_back({def, &sf, false, {}, {}});
        }
        for (std::size_t li = 0; li < sf.rawLines.size(); ++li) {
            if (!std::regex_search(sf.rawLines[li], marker))
                continue;
            const int al = static_cast<int>(li) + 1;
            const auto begin = graph.nodes.begin() +
                               static_cast<std::ptrdiff_t>(first_node);
            const auto inside =
                std::find_if(begin, graph.nodes.end(),
                             [al](const CallNode &node) {
                                 return al >= node.def.bodyBeginLine &&
                                        al <= node.def.bodyEndLine;
                             });
            if (inside != graph.nodes.end()) {
                inside->allowLines.insert({al, al + 1});
                continue;
            }
            // Outside every body: exempt the next definition.
            const auto next =
                std::find_if(begin, graph.nodes.end(),
                             [al](const CallNode &node) {
                                 return node.def.bodyBeginLine > al;
                             });
            if (next != graph.nodes.end())
                next->exempt = true;
        }
    }

    static const std::regex kCall(R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
    for (std::size_t ni = 0; ni < graph.nodes.size(); ++ni) {
        CallNode &node = graph.nodes[ni];
        if (node.exempt)
            continue;
        const auto &lines = node.file->codeLines;
        for (int li = node.def.bodyBeginLine;
             li <= node.def.bodyEndLine &&
             li <= static_cast<int>(lines.size());
             ++li) {
            const std::string &line = lines[static_cast<std::size_t>(li - 1)];
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                kCall);
                 it != std::sregex_iterator(); ++it) {
                const std::string callee = (*it)[1].str();
                const auto found = graph.byName.find(callee);
                if (isCallKeyword(callee) || found == graph.byName.end())
                    continue;
                for (const std::size_t target : found->second) {
                    if (target != ni && !graph.nodes[target].exempt)
                        node.callees.emplace(target, li);
                }
            }
        }
    }
    return graph;
}

namespace {

/** A concrete cycle through an SCC: DFS restricted to the component
 *  from its first member back to itself. */
std::vector<std::string>
cyclePath(const std::vector<std::string> &members, const Digraph &graph)
{
    const std::set<std::string> inside(members.begin(), members.end());
    const std::string &start = members.front();
    std::vector<std::string> path = {start};
    std::set<std::string> visited;
    struct Frame
    {
        std::string node;
        std::size_t nextTarget = 0;
    };
    std::vector<Frame> stack = {{start, 0}};
    while (!stack.empty()) {
        Frame &frame = stack.back();
        const auto &targets = graph.at(frame.node);
        bool advanced = false;
        while (frame.nextTarget < targets.size()) {
            const std::string &next = targets[frame.nextTarget++];
            if (next == start) {
                path.push_back(start);
                return path;
            }
            if (inside.count(next) && visited.insert(next).second) {
                path.push_back(next);
                stack.push_back({next, 0});
                advanced = true;
                break;
            }
        }
        if (!advanced) {
            stack.pop_back();
            path.pop_back();
        }
    }
    return {start, "...", start}; // Unreachable for a genuine SCC.
}

} // namespace

std::vector<Cycle>
findCycles(const Digraph &graph)
{
    std::map<std::string, int> index;
    std::map<std::string, int> low;
    std::vector<std::string> stack;
    std::set<std::string> onStack;
    std::vector<Cycle> cycles;
    int counter = 0;

    auto visit = [&](const std::string &node) {
        index[node] = low[node] = counter++;
        stack.push_back(node);
        onStack.insert(node);
    };
    struct Frame
    {
        std::string node;
        std::size_t nextTarget = 0;
    };
    for (const auto &entry : graph) {
        if (index.count(entry.first))
            continue;
        std::vector<Frame> frames{{entry.first, 0}};
        visit(entry.first);
        while (!frames.empty()) {
            Frame &frame = frames.back();
            const auto &targets = graph.at(frame.node);
            if (frame.nextTarget < targets.size()) {
                const std::string &next = targets[frame.nextTarget++];
                if (!graph.count(next))
                    continue;
                if (!index.count(next)) {
                    visit(next);
                    frames.push_back({next, 0});
                } else if (onStack.count(next)) {
                    low[frame.node] = std::min(low[frame.node], index[next]);
                }
                continue;
            }
            const std::string done = frame.node;
            frames.pop_back();
            if (!frames.empty())
                low[frames.back().node] =
                    std::min(low[frames.back().node], low[done]);
            if (low[done] != index[done])
                continue;
            Cycle cycle;
            for (std::string popped; popped != done;) {
                popped = stack.back();
                stack.pop_back();
                onStack.erase(popped);
                cycle.members.push_back(popped);
            }
            const auto &own = graph.at(done);
            if (cycle.members.size() < 2 &&
                std::find(own.begin(), own.end(), done) == own.end())
                continue;
            std::sort(cycle.members.begin(), cycle.members.end());
            cycle.path = cyclePath(cycle.members, graph);
            cycles.push_back(std::move(cycle));
        }
    }
    return cycles;
}

} // namespace erec::analyze
