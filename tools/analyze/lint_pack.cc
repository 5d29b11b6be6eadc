/**
 * @file
 * The lint pack: per-line regex rules plus the structural checks
 * (header hygiene, defaulted-parameter trails, ERC_HOT_PATH placement,
 * span-name literals) documented in analyze.h.
 */

#include <algorithm>
#include <cctype>
#include <regex>

#include "tools/analyze/analyze.h"

namespace erec::analyze {

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
isLibrary(FileClass cls)
{
    return cls == FileClass::LibrarySource ||
           cls == FileClass::LibraryHeader;
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
    /** Module exempt from the rule (the blessed home when it is a
     *  whole module, e.g. runtime for std::thread). */
    std::string exemptModule;
    /** When non-empty, the rule applies ONLY inside this module (e.g.
     *  sim for the closure-free event engine). */
    std::string onlyModule;
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
            "",
            "",
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
            "",
            "",
        },
        {
            "raw-thread",
            std::regex(R"(\bstd\s*::\s*(thread|jthread)\b)"),
            "raw std::thread outside src/elasticrec/runtime/; serving "
            "threads are runtime::WorkerThreads sized by a "
            "runtime::Executor so thread counts stay an explicit, "
            "observable resource",
            {FileClass::LibrarySource, FileClass::LibraryHeader,
             FileClass::BenchSource, FileClass::ExampleSource},
            {},
            "runtime",
            "",
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
            "",
            "",
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
            "kernels",
            "",
        },
        {
            "iostream-in-library",
            std::regex(R"(^\s*#\s*include\s*<iostream>)"
                       R"(|\bstd\s*::\s*(cout|cerr|clog)\b)"),
            "library code must log through elasticrec/common/logging.h, "
            "not <iostream>",
            {FileClass::LibrarySource, FileClass::LibraryHeader},
            {},
            "",
            "",
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
            "",
            "sim",
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
    const std::string module = moduleOf(path);
    return module != rule.exemptModule &&
           (rule.onlyModule.empty() || module == rule.onlyModule);
}

/**
 * excess-default-params: walk every top-level parenthesised group in
 * the stripped text and count `=` tokens at paren depth 1 outside any
 * nested braces/brackets — each one is a defaulted parameter in a
 * declaration (comparison and compound-assignment operators are
 * excluded by their neighbouring characters; `= default` / `= 0`
 * follow the closing paren and never count).
 */
void
checkExcessDefaultParams(const SourceFile &sf, const Suppressions &sup,
                         std::vector<Finding> *out)
{
    static const std::string kCompoundOps = "=<>!+-*/%&|^";
    const std::string &stripped = sf.stripped;
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
            out->push_back(
                {"lint", "excess-default-params", sf.path, start_line, "",
                 {},
                 "parameter list declares " + std::to_string(defaults) +
                     " defaulted parameters; fold them into an "
                     "options struct (like sim::ExperimentOptions) so "
                     "call sites stay readable"});
        }
    }
}

/**
 * hot-path-annotation: a bare ERC_HOT_PATH must be followed by an
 * identifier plus parameter list before any `;`, `=` or `}` (checked
 * on stripped lines, so prose in comments does not trip it); an
 * ERC_HOT_PATH_ALLOW must carry a non-empty string reason (checked on
 * raw lines, because the hotpath pack honours trailing-comment
 * placement).
 */
void
checkHotPathAnnotation(const SourceFile &sf, const Suppressions &sup,
                       std::vector<Finding> *out)
{
    static const std::regex kBare(R"(\bERC_HOT_PATH\b)");
    static const std::regex kAllow(R"(\bERC_HOT_PATH_ALLOW\b)");
    static const std::regex kAllowReason(
        R"(\bERC_HOT_PATH_ALLOW\(\s*"[^"]+")");
    const auto &lines = sf.strippedLines;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(lines[i], m, kBare))
            continue;
        const int line_no = static_cast<int>(i + 1);
        if (sup.allows(line_no, "hot-path-annotation"))
            continue;
        // Bounded lookahead over the stripped text after the token.
        std::string tail = lines[i].substr(
            static_cast<std::size_t>(m.position(0) + m.length(0)));
        for (std::size_t j = i + 1; j < lines.size() && j < i + 6; ++j)
            tail += "\n" + lines[j];
        bool ok = false;
        const std::size_t paren = tail.find('(');
        const std::size_t stop = tail.find_first_of(";=}");
        if (paren != std::string::npos &&
            (stop == std::string::npos || paren < stop)) {
            std::size_t k = paren;
            while (k > 0 && std::isspace(static_cast<unsigned char>(
                                tail[k - 1])))
                --k;
            ok = k > 0 && isIdentChar(tail[k - 1]);
        }
        if (!ok) {
            out->push_back(
                {"lint", "hot-path-annotation", sf.path, line_no, "", {},
                 "ERC_HOT_PATH must annotate a function declaration "
                 "(identifier + parameter list must follow); on "
                 "anything else the hotpath pack derives no root"});
        }
    }
    for (std::size_t i = 0; i < sf.rawLines.size(); ++i) {
        const int line_no = static_cast<int>(i + 1);
        if (!std::regex_search(sf.rawLines[i], kAllow) ||
            sup.allows(line_no, "hot-path-annotation") ||
            std::regex_search(sf.rawLines[i], kAllowReason))
            continue;
        out->push_back(
            {"lint", "hot-path-annotation", sf.path, line_no, "", {},
             "ERC_HOT_PATH_ALLOW requires a non-empty string reason "
             "explaining why this allocation is acceptable on the hot "
             "path"});
    }
}

/**
 * trace-name-literal: the call is located on the stripped line (so a
 * prose mention cannot trip the rule), then the RAW statement — joined
 * across up to three continuation lines, since formatters wrap the
 * name argument — is scanned for a quoted literal or a std::string
 * construction (the stripper blanks the quotes themselves).
 */
void
checkTraceNameLiteral(const SourceFile &sf, const Suppressions &sup,
                      std::vector<Finding> *out)
{
    static const std::regex kTraceCall(R"(\brecordSpan\s*\()");
    static const std::regex kLiteralArg(
        R"(\brecordSpan\s*\([^;]*("|\bstd\s*::\s*string\b))");
    const auto &raw = sf.rawLines;
    for (std::size_t i = 0; i < sf.strippedLines.size(); ++i) {
        const int line_no = static_cast<int>(i + 1);
        if (!std::regex_search(sf.strippedLines[i], kTraceCall) ||
            sup.allows(line_no, "trace-name-literal"))
            continue;
        std::string stmt = raw[i];
        for (std::size_t j = i + 1; j < raw.size() && j < i + 4 &&
                                    stmt.find(';') == std::string::npos;
             ++j)
            stmt += " " + raw[j];
        if (!std::regex_search(stmt, kLiteralArg))
            continue;
        out->push_back(
            {"lint", "trace-name-literal", sf.path, line_no, "", {},
             "span names on trace-record calls must be interned "
             "NameIds (obs::internSpanName at static-init time), not "
             "inline string literals or std::string temporaries"});
    }
}

/** Line number of the first non-blank stripped line (0 if none). */
int
firstCodeLine(const std::vector<std::string> &stripped_lines)
{
    for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
        if (!trim(stripped_lines[i]).empty())
            return static_cast<int>(i + 1);
    }
    return 0;
}

void
lintFile(const SourceFile &sf, FileClass cls, std::vector<Finding> *out)
{
    const std::string &path = sf.path;
    const auto sup = collectSuppressions(sf.rawLines);

    for (const auto &rule : lineRules()) {
        if (!ruleApplies(rule, cls, path))
            continue;
        for (std::size_t i = 0; i < sf.strippedLines.size(); ++i) {
            const int line_no = static_cast<int>(i + 1);
            if (std::regex_search(sf.strippedLines[i], rule.pattern) &&
                !sup.allows(line_no, rule.name))
                out->push_back(
                    {"lint", rule.name, path, line_no, "", {},
                     rule.message});
        }
    }

    if (isHeaderPath(path)) {
        static const std::regex kPragmaOnce(R"(^\s*#\s*pragma\s+once\s*$)");
        const int line_no = firstCodeLine(sf.strippedLines);
        const std::string first =
            line_no == 0
                ? ""
                : sf.strippedLines[static_cast<std::size_t>(line_no - 1)];
        if (!std::regex_search(first, kPragmaOnce) &&
            !sup.allowsFileWide("header-pragma-once")) {
            out->push_back({"lint", "header-pragma-once", path,
                            std::max(line_no, 1), "", {},
                            "headers must start with #pragma once"});
        }
    }

    if (cls == FileClass::LibraryHeader)
        checkExcessDefaultParams(sf, sup, out);

    // Same exemption mechanism as the rule table's exemptSuffixes:
    // common/hotpath.h is where the macros themselves are defined.
    if (isLibrary(cls) && !endsWith(path, "common/hotpath.h"))
        checkHotPathAnnotation(sf, sup, out);

    if (isLibrary(cls))
        checkTraceNameLiteral(sf, sup, out);

    if (cls == FileClass::LibraryHeader) {
        static const std::regex kNamespace(R"(\bnamespace\s+erec\b)");
        const bool found =
            std::any_of(sf.strippedLines.begin(), sf.strippedLines.end(),
                        [](const std::string &line) {
                            return std::regex_search(line, kNamespace);
                        });
        if (!found && !sup.allowsFileWide("header-namespace")) {
            out->push_back({"lint", "header-namespace", path, 1, "", {},
                            "library headers must declare their "
                            "contents inside namespace erec"});
        }
    }
}

} // namespace

FileClass
classifyPath(const std::string &path)
{
    const bool source = endsWith(path, ".cc") || endsWith(path, ".cpp");
    if (!source && !isHeaderPath(path))
        return FileClass::Skip;
    const std::string top = topDir(path);
    if (top == "src")
        return isHeaderPath(path) ? FileClass::LibraryHeader
                                  : FileClass::LibrarySource;
    if (top == "tests")
        return FileClass::TestSource;
    if (top == "bench")
        return FileClass::BenchSource;
    if (top == "examples")
        return FileClass::ExampleSource;
    return FileClass::Skip;
}

void
lintPack(const std::vector<SourceFile> &sources, Report *report)
{
    for (const SourceFile &sf : sources) {
        const FileClass cls = classifyPath(sf.path);
        if (cls != FileClass::Skip)
            lintFile(sf, cls, &report->findings);
    }
}

} // namespace erec::analyze
