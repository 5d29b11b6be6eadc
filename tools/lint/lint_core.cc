#include "tools/lint/lint_core.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

namespace erec::lint {

namespace {

/** True when `path` contains `component` as a whole directory name. */
bool
hasDirComponent(const std::string &path, const std::string &component)
{
    std::size_t pos = 0;
    while ((pos = path.find(component, pos)) != std::string::npos) {
        const bool at_start = pos == 0 || path[pos - 1] == '/';
        const std::size_t end = pos + component.size();
        const bool at_end = end < path.size() && path[end] == '/';
        if (at_start && at_end)
            return true;
        pos = end;
    }
    return false;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
isHeaderPath(const std::string &path)
{
    return endsWith(path, ".h") || endsWith(path, ".hpp");
}

/** Split into lines; the trailing newline does not open an empty line. */
std::vector<std::string>
splitLines(const std::string &content)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start <= content.size()) {
        std::size_t nl = content.find('\n', start);
        if (nl == std::string::npos) {
            if (start < content.size())
                lines.push_back(content.substr(start));
            break;
        }
        lines.push_back(content.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

/** Rules suppressed via "erec-lint: allow(rule)" markers. */
struct Suppressions
{
    /** line number (1-based) -> rules allowed on that line. */
    std::vector<std::vector<std::string>> perLine;
    /** Rules allowed anywhere in the file (file-scoped rules only). */
    std::vector<std::string> fileWide;

    bool
    allows(int line, const std::string &rule) const
    {
        const auto &rules = perLine[static_cast<std::size_t>(line - 1)];
        return std::find(rules.begin(), rules.end(), rule) != rules.end();
    }

    bool
    allowsFileWide(const std::string &rule) const
    {
        return std::find(fileWide.begin(), fileWide.end(), rule) !=
               fileWide.end();
    }
};

Suppressions
collectSuppressions(const std::vector<std::string> &raw_lines)
{
    static const std::regex kAllow(
        R"(erec-lint:\s*allow\(([A-Za-z0-9_-]+)\))");
    Suppressions sup;
    sup.perLine.resize(raw_lines.size());
    for (std::size_t i = 0; i < raw_lines.size(); ++i) {
        auto begin = std::sregex_iterator(raw_lines[i].begin(),
                                          raw_lines[i].end(), kAllow);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            sup.perLine[i].push_back((*it)[1].str());
            sup.fileWide.push_back((*it)[1].str());
        }
    }
    return sup;
}

struct LineRule
{
    std::string name;
    std::regex pattern;
    std::string message;
    /** File classes the rule applies to. */
    std::vector<FileClass> classes;
    /** Path suffixes exempt from the rule (the blessed home of the
     *  construct, e.g. common/error.h for `throw`). */
    std::vector<std::string> exemptSuffixes;
    /** Directory components exempt from the rule (the blessed home
     *  when it is a whole module, e.g. runtime/ for std::thread). */
    std::vector<std::string> exemptDirs;
    /** When non-empty, the rule applies ONLY under these directory
     *  components (e.g. sim/ for the closure-free event engine). */
    std::vector<std::string> onlyDirs;
};

const std::vector<LineRule> &
lineRules()
{
    static const std::vector<LineRule> kRules = {
        {
            "raw-throw",
            std::regex(R"(\bthrow\b)"),
            "raw `throw` in library code; use erec::fatal/panic or "
            "ERC_CHECK/ERC_ASSERT from elasticrec/common/error.h",
            {FileClass::LibrarySource, FileClass::LibraryHeader},
            {"common/error.h"},
            {},
            {},
        },
        {
            "unseeded-random",
            std::regex(R"(\bstd\s*::\s*rand\b|\bsrand\s*\()"
                       R"(|\brandom_device\b)"
                       R"(|\btime\s*\(\s*(nullptr|NULL)\s*\))"),
            "unseeded randomness breaks experiment reproducibility; "
            "draw from a seeded erec::Rng (elasticrec/common/rng.h)",
            {FileClass::LibrarySource, FileClass::LibraryHeader,
             FileClass::TestSource, FileClass::BenchSource,
             FileClass::ExampleSource},
            {"common/rng.h", "common/rng.cc"},
            {},
            {},
        },
        {
            "raw-thread",
            std::regex(R"(\bstd\s*::\s*(thread|jthread)\b)"),
            "raw std::thread outside src/elasticrec/runtime/; serving "
            "code must run work through runtime::ThreadPool / "
            "runtime::Executor so thread counts stay an explicit, "
            "observable resource",
            {FileClass::LibrarySource, FileClass::LibraryHeader,
             FileClass::BenchSource, FileClass::ExampleSource},
            {},
            {"runtime"},
            {},
        },
        {
            "raw-sleep",
            std::regex(R"(\bstd\s*::\s*this_thread\s*::\s*)"
                       R"(sleep_(for|until)\b)"),
            "raw sleep in library code defeats the sim's deterministic "
            "clock and hides latency from the tracer; wait on a "
            "condition variable with a deadline, or drive time through "
            "sim::Clock",
            {FileClass::LibrarySource, FileClass::LibraryHeader},
            {},
            {},
            {},
        },
        {
            "raw-intrinsics",
            std::regex(R"(^\s*#\s*include\s*<[a-z0-9]*intrin\.h>)"
                       R"(|\b__m(?:64|128|256|512)[di]?\b)"
                       R"(|\b_mm(?:256|512)?_[A-Za-z0-9_]+\s*\()"),
            "raw SIMD intrinsics outside src/elasticrec/kernels/; "
            "vector code goes through the kernels::KernelBackend "
            "registry so every kernel has a scalar reference and a "
            "bit-identity test",
            {FileClass::LibrarySource, FileClass::LibraryHeader,
             FileClass::BenchSource, FileClass::ExampleSource},
            {},
            {"kernels"},
            {},
        },
        {
            "iostream-in-library",
            std::regex(R"(^\s*#\s*include\s*<iostream>)"
                       R"(|\bstd\s*::\s*(cout|cerr|clog)\b)"),
            "library code must log through elasticrec/common/logging.h, "
            "not <iostream>",
            {FileClass::LibrarySource, FileClass::LibraryHeader},
            {},
            {},
            {},
        },
        {
            "sim-std-function",
            std::regex(R"(\bstd\s*::\s*function\s*<)"),
            "std::function in a sim/ library header; the event engine "
            "dispatches POD EventRecords through EventSink/PodSink "
            "(elasticrec/sim/event_queue.h) — captured closures "
            "heap-allocate on the gated query path (DESIGN.md "
            "section 13)",
            {FileClass::LibraryHeader},
            {},
            {},
            {"sim"},
        },
    };
    return kRules;
}

bool
ruleApplies(const LineRule &rule, FileClass cls, const std::string &path)
{
    if (std::find(rule.classes.begin(), rule.classes.end(), cls) ==
        rule.classes.end()) {
        return false;
    }
    for (const auto &suffix : rule.exemptSuffixes) {
        if (endsWith(path, suffix))
            return false;
    }
    for (const auto &dir : rule.exemptDirs) {
        if (hasDirComponent(path, dir))
            return false;
    }
    if (!rule.onlyDirs.empty()) {
        bool inside = false;
        for (const auto &dir : rule.onlyDirs)
            if (hasDirComponent(path, dir))
                inside = true;
        if (!inside)
            return false;
    }
    return true;
}

/**
 * excess-default-params: walk every top-level parenthesised group in
 * the stripped text and count `=` tokens at paren depth 1 outside any
 * nested braces/brackets — each one is a defaulted parameter in a
 * declaration (comparison and compound-assignment operators are
 * excluded by their neighbouring characters; `= default` / `= 0`
 * follow the closing paren and never count). More than two defaults
 * means the signature should take an options struct instead.
 */
void
checkExcessDefaultParams(const std::string &path,
                         const std::string &stripped,
                         const Suppressions &sup,
                         std::vector<Diagnostic> *diags)
{
    static const std::string kCompoundOps = "=<>!+-*/%&|^";
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = stripped.size();
    while (i < n) {
        const char c = stripped[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (c != '(') {
            ++i;
            continue;
        }
        const int start_line = line;
        int paren = 1;
        int nested = 0; // {} / [] nesting inside the group
        int defaults = 0;
        ++i;
        while (i < n && paren > 0) {
            const char g = stripped[i];
            if (g == '\n')
                ++line;
            else if (g == '(')
                ++paren;
            else if (g == ')')
                --paren;
            else if (g == '{' || g == '[')
                ++nested;
            else if (g == '}' || g == ']')
                nested = std::max(0, nested - 1);
            else if (g == '=' && paren == 1 && nested == 0) {
                const char prev = stripped[i - 1];
                const char next = i + 1 < n ? stripped[i + 1] : '\0';
                if (kCompoundOps.find(prev) == std::string::npos &&
                    next != '=')
                    ++defaults;
            }
            ++i;
        }
        if (defaults > 2 &&
            !sup.allows(start_line, "excess-default-params")) {
            diags->push_back(
                {path, start_line, "excess-default-params",
                 "parameter list declares " + std::to_string(defaults) +
                     " defaulted parameters; fold them into an "
                     "options struct (like sim::ExperimentOptions) so "
                     "call sites stay readable"});
        }
    }
}

/**
 * unannotated-mutex: a std::mutex / std::shared_mutex *member* in a
 * library header (a declaration like `mutable std::mutex mutex_;`,
 * not a lock-holder such as std::unique_lock<std::mutex>) is only
 * meaningful when the data it serializes is tied to it, so some field
 * in the same file must carry ERC_GUARDED_BY(<member>) or
 * ERC_PT_GUARDED_BY(<member>) (common/thread_annotations.h). Without
 * one, clang's -Wthread-safety pass has nothing to check and the
 * locking discipline lives only in comments. runtime/ pool internals
 * are exempt via the rule table's exemptDirs (their queues annotate
 * already; the exemption keeps scratch mutexes in that blessed module
 * from blocking experiments).
 */
void
checkUnannotatedMutex(const std::string &path,
                      const std::vector<std::string> &stripped_lines,
                      const std::string &stripped,
                      const Suppressions &sup,
                      std::vector<Diagnostic> *diags)
{
    static const std::regex kMutexMember(
        R"(\bstd\s*::\s*(?:shared_)?mutex\s+([A-Za-z_][A-Za-z0-9_]*)\s*;)");
    for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
        std::smatch match;
        if (!std::regex_search(stripped_lines[i], match, kMutexMember))
            continue;
        const int line_no = static_cast<int>(i + 1);
        if (sup.allows(line_no, "unannotated-mutex"))
            continue;
        const std::string name = match[1].str();
        const std::regex guarded(R"(\bERC_(?:PT_)?GUARDED_BY\s*\(\s*)" +
                                 name + R"(\s*\))");
        if (std::regex_search(stripped, guarded))
            continue;
        diags->push_back(
            {path, line_no, "unannotated-mutex",
             "mutex member `" + name + "` has no ERC_GUARDED_BY(" +
                 name + ") field in this header; annotate the data it "
                 "protects (elasticrec/common/thread_annotations.h) so "
                 "clang -Wthread-safety can check the locking "
                 "discipline"});
    }
}

/**
 * hot-path-annotation: hygiene for the ERC_HOT_PATH markers that feed
 * tools/hotpath (common/hotpath.h). A bare ERC_HOT_PATH must annotate
 * a function declaration — an identifier plus parameter list must
 * follow before any `;`, `=` or `}` — because the hotpath analyzer
 * derives its roots from the declarator after the token; an annotation
 * on a variable or a dangling one silently creates no root. An
 * ERC_HOT_PATH_ALLOW must carry a non-empty string reason: the waiver
 * *is* the documentation of why the allocation is acceptable. The bare
 * check reads stripped lines (prose mentions in comments don't trip
 * it); the ALLOW check reads raw lines, because the hotpath analyzer
 * itself honours trailing-comment placement. common/hotpath.h (the
 * macro definitions) is exempt.
 */
void
checkHotPathAnnotation(const std::string &path,
                       const std::vector<std::string> &raw_lines,
                       const std::vector<std::string> &stripped_lines,
                       const Suppressions &sup,
                       std::vector<Diagnostic> *diags)
{
    static const std::regex kBare(R"(\bERC_HOT_PATH\b)");
    static const std::regex kAllow(R"(\bERC_HOT_PATH_ALLOW\b)");
    static const std::regex kAllowReason(
        R"(\bERC_HOT_PATH_ALLOW\(\s*"[^"]+")");
    for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(stripped_lines[i], m, kBare))
            continue;
        const int line_no = static_cast<int>(i + 1);
        if (sup.allows(line_no, "hot-path-annotation"))
            continue;
        // Bounded lookahead over the stripped text after the token.
        std::string tail = stripped_lines[i].substr(
            static_cast<std::size_t>(m.position(0) + m.length(0)));
        for (std::size_t j = i + 1;
             j < stripped_lines.size() && j < i + 6; ++j) {
            tail += "\n";
            tail += stripped_lines[j];
        }
        bool ok = false;
        const std::size_t paren = tail.find('(');
        const std::size_t stop = tail.find_first_of(";=}");
        if (paren != std::string::npos &&
            (stop == std::string::npos || paren < stop)) {
            std::size_t k = paren;
            while (k > 0 && std::isspace(static_cast<unsigned char>(
                                tail[k - 1])))
                --k;
            ok = k > 0 && (std::isalnum(static_cast<unsigned char>(
                               tail[k - 1])) ||
                           tail[k - 1] == '_');
        }
        if (!ok) {
            diags->push_back(
                {path, line_no, "hot-path-annotation",
                 "ERC_HOT_PATH must annotate a function declaration "
                 "(identifier + parameter list must follow); on "
                 "anything else the hotpath analyzer derives no root"});
        }
    }
    for (std::size_t i = 0; i < raw_lines.size(); ++i) {
        if (!std::regex_search(raw_lines[i], kAllow))
            continue;
        const int line_no = static_cast<int>(i + 1);
        if (sup.allows(line_no, "hot-path-annotation"))
            continue;
        if (std::regex_search(raw_lines[i], kAllowReason))
            continue;
        diags->push_back(
            {path, line_no, "hot-path-annotation",
             "ERC_HOT_PATH_ALLOW requires a non-empty string reason "
             "explaining why this allocation is acceptable on the hot "
             "path"});
    }
}

/**
 * trace-name-literal: span-recording calls in library code must be
 * handed interned NameIds, never an inline string literal or a
 * std::string temporary. Span records (the flight recorder's and the
 * simulator's) store a 4-byte id; a string argument allocates per span
 * and defeats the ERC_HOT_PATH allocation budget. Detection uses the
 * RAW lines: stripCommentsAndStrings blanks the quotes themselves, so
 * the literal is only visible in the original text. The call is located
 * on the stripped line first (so a prose mention in a comment can't
 * trip the rule), then the statement — joined across up to three
 * continuation lines, since formatters wrap the name argument — is
 * scanned for a quoted literal or a std::string construction.
 */
void
checkTraceNameLiteral(const std::string &path,
                      const std::vector<std::string> &raw_lines,
                      const std::vector<std::string> &stripped_lines,
                      const Suppressions &sup,
                      std::vector<Diagnostic> *diags)
{
    static const std::regex kTraceCall(
        R"(\b(addSpan|recordSpan|recordLink)\s*\()");
    static const std::regex kLiteralArg(
        R"(\b(addSpan|recordSpan|recordLink)\s*\([^;]*("|\bstd\s*::\s*string\b))");
    for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
        if (!std::regex_search(stripped_lines[i], kTraceCall))
            continue;
        const int line_no = static_cast<int>(i + 1);
        if (sup.allows(line_no, "trace-name-literal"))
            continue;
        std::string stmt = raw_lines[i];
        for (std::size_t j = i + 1;
             j < raw_lines.size() && j < i + 4 &&
             stmt.find(';') == std::string::npos;
             ++j)
            stmt += " " + raw_lines[j];
        if (!std::regex_search(stmt, kLiteralArg))
            continue;
        diags->push_back(
            {path, line_no, "trace-name-literal",
             "span names on trace-record calls must be interned "
             "NameIds (obs::internSpanName at static-init time), not "
             "inline string literals or std::string temporaries"});
    }
}

/** First non-blank line of stripped content, with its line number. */
std::pair<std::string, int>
firstCodeLine(const std::vector<std::string> &stripped_lines)
{
    for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
        const auto &line = stripped_lines[i];
        if (std::any_of(line.begin(), line.end(), [](unsigned char c) {
                return !std::isspace(c);
            })) {
            return {line, static_cast<int>(i + 1)};
        }
    }
    return {"", 0};
}

} // namespace

FileClass
classifyPath(const std::string &path)
{
    const bool source = endsWith(path, ".cc") || endsWith(path, ".cpp");
    if (!source && !isHeaderPath(path))
        return FileClass::Skip;
    if (hasDirComponent(path, "src"))
        return isHeaderPath(path) ? FileClass::LibraryHeader
                                  : FileClass::LibrarySource;
    if (hasDirComponent(path, "tests"))
        return FileClass::TestSource;
    if (hasDirComponent(path, "bench"))
        return FileClass::BenchSource;
    if (hasDirComponent(path, "examples"))
        return FileClass::ExampleSource;
    return FileClass::Skip;
}

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
            if (c == '/' && next == '/') {
                state = State::LineComment;
                emit(c);
                emit(next);
                i += 2;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                emit(c);
                emit(next);
                i += 2;
            } else if (c == 'R' && next == '"' &&
                       (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                       content[i - 1])) &&
                                   content[i - 1] != '_'))) {
                // Raw string literal: R"delim( ... )delim"
                std::size_t paren = content.find('(', i + 2);
                if (paren == std::string::npos) {
                    emit(c);
                    ++i;
                    break;
                }
                const std::string delim =
                    content.substr(i + 2, paren - (i + 2));
                const std::string closer = ")" + delim + "\"";
                std::size_t close = content.find(closer, paren + 1);
                const std::size_t end = close == std::string::npos
                                            ? n
                                            : close + closer.size();
                for (; i < end; ++i)
                    emit(content[i]);
            } else if (c == '"') {
                state = State::String;
                emit(c);
                ++i;
            } else if (c == '\'') {
                state = State::Char;
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

std::vector<Diagnostic>
lintContent(const std::string &path, const std::string &content)
{
    std::vector<Diagnostic> diags;
    const FileClass cls = classifyPath(path);
    if (cls == FileClass::Skip)
        return diags;

    const auto raw_lines = splitLines(content);
    const std::string stripped = stripCommentsAndStrings(content);
    const auto stripped_lines = splitLines(stripped);
    const auto sup = collectSuppressions(raw_lines);

    for (const auto &rule : lineRules()) {
        if (!ruleApplies(rule, cls, path))
            continue;
        for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
            const int line_no = static_cast<int>(i + 1);
            if (!std::regex_search(stripped_lines[i], rule.pattern))
                continue;
            if (sup.allows(line_no, rule.name))
                continue;
            diags.push_back({path, line_no, rule.name, rule.message});
        }
    }

    if (isHeaderPath(path)) {
        const auto [first, line_no] = firstCodeLine(stripped_lines);
        static const std::regex kPragmaOnce(
            R"(^\s*#\s*pragma\s+once\s*$)");
        if (!std::regex_search(first, kPragmaOnce) &&
            !sup.allowsFileWide("header-pragma-once")) {
            diags.push_back({path, std::max(line_no, 1),
                             "header-pragma-once",
                             "headers must start with #pragma once"});
        }
    }

    if (cls == FileClass::LibraryHeader)
        checkExcessDefaultParams(path, stripped, sup, &diags);

    // Same exemption mechanism as the rule table's exemptSuffixes:
    // common/hotpath.h is where the macros themselves are defined.
    if ((cls == FileClass::LibrarySource ||
         cls == FileClass::LibraryHeader) &&
        !endsWith(path, "common/hotpath.h")) {
        checkHotPathAnnotation(path, raw_lines, stripped_lines, sup,
                               &diags);
    }

    // In library code, trace names must be interned ids.
    if (cls == FileClass::LibrarySource ||
        cls == FileClass::LibraryHeader) {
        checkTraceNameLiteral(path, raw_lines, stripped_lines, sup,
                              &diags);
    }

    // Same exemption mechanism as the rule table's exemptDirs:
    // runtime/ is the blessed home of pool/queue internals.
    if (cls == FileClass::LibraryHeader &&
        !hasDirComponent(path, "runtime")) {
        checkUnannotatedMutex(path, stripped_lines, stripped, sup,
                              &diags);
    }

    if (cls == FileClass::LibraryHeader) {
        static const std::regex kNamespace(R"(\bnamespace\s+erec\b)");
        bool found = false;
        for (const auto &line : stripped_lines) {
            if (std::regex_search(line, kNamespace)) {
                found = true;
                break;
            }
        }
        if (!found && !sup.allowsFileWide("header-namespace")) {
            diags.push_back({path, 1, "header-namespace",
                             "library headers must declare their "
                             "contents inside namespace erec"});
        }
    }

    return diags;
}

std::string
formatDiagnostic(const Diagnostic &d)
{
    std::ostringstream oss;
    oss << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message;
    return oss.str();
}

} // namespace erec::lint
