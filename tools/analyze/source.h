#pragma once

/**
 * @file
 * Shared source layer of `erec_analyze`: everything the four rule
 * packs (analyze.h) read, computed once per file and owning no rule.
 *
 *  - the tree walk: roots are spelled relative to the current
 *    directory (the repo root), and every pack picks its files by the
 *    first component of that spelling (src, tools, bench, tests,
 *    examples) — never by a component of the absolute checkout path;
 *  - one comment/string stripper, preprocessor blanking, splitLines
 *    and trim;
 *  - the function extractor (definitions with their body spans);
 *  - one call-graph builder over `src/`, parameterised by the waiver
 *    macro whose markers exempt lines and functions;
 *  - one iterative Tarjan SCC that reports each cycle with a concrete
 *    path.
 *
 * Everything is lexical: macros are not expanded, callees resolve by
 * base name, and bodies the extractor cannot parse are skipped as
 * units. Raises erec::ConfigError (the CLI's exit 2) for roots outside
 * the current directory and unreadable files.
 */

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace erec::analyze {

/** Repo-relative path -> file content. */
using FileSet = std::map<std::string, std::string>;

/**
 * `path` spelled relative to `cwd`, lexically ("./src/x" -> "src/x";
 * "/home/u/src/repo/tests/a.cpp" under cwd "/home/u/src/repo" ->
 * "tests/a.cpp"; "." -> ""). Raises erec::ConfigError when the path
 * lies outside `cwd`.
 */
std::string repoRelative(const std::string &path, const std::string &cwd);

/** Read every C++ file (.cc/.cpp/.h/.hpp) under `roots`, keyed by its
 *  repoRelative() spelling. Raises erec::ConfigError on a missing or
 *  outside root and on an unreadable file. */
FileSet readTree(const std::vector<std::string> &roots,
                 const std::string &cwd);

/** First component of a repo-relative path ("src/a/b.h" -> "src"). */
std::string topDir(const std::string &path);

/** True for .h / .hpp paths. */
bool isHeaderPath(const std::string &path);

/**
 * Module owning a repo-relative path: src/elasticrec/<m>/... -> <m>;
 * anything else maps to its first directory component ("tools",
 * "bench", "tests", "examples").
 */
std::string moduleOf(const std::string &path);

/** Lexically normalize a '/'-separated path ("a/./b/../c" -> "a/c"). */
std::string normalizePath(const std::string &path);

/** Split into lines; the trailing newline does not open an empty line. */
std::vector<std::string> splitLines(const std::string &content);

std::string trim(const std::string &s);

/** `parts` joined with `sep` between them. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Keywords that can precede a `(` but never name a function. */
bool isCallKeyword(const std::string &word);

/** [A-Za-z0-9_]. */
bool isIdentChar(char c);

/** One extracted function definition. */
struct FunctionDef
{
    /** Base name (after the last `::`). */
    std::string name;
    /** Name as written, e.g. "DenseShardServer::serve". */
    std::string display;
    /** 1-based line of the function's identifier. */
    int line = 0;
    /** 1-based inclusive line span of the `{...}` body. */
    int bodyBeginLine = 0;
    int bodyEndLine = 0;
};

/**
 * One file, parsed once for every pack. The stripped and code views
 * keep every newline, so a line number means the same line in all
 * three; rules match the blanked views, while waiver markers and
 * include paths are read from the raw lines.
 */
struct SourceFile
{
    std::string path;
    std::vector<std::string> rawLines;
    /** Comments, string and char literals (raw strings included)
     *  blanked; preprocessor lines kept. */
    std::string stripped;
    std::vector<std::string> strippedLines;
    /** Stripped text with preprocessor directives and their `\`
     *  continuation lines blanked too, so `#define ERC_HOT_PATH`
     *  registers no annotation and macro bodies make no calls. */
    std::string code;
    std::vector<std::string> codeLines;
    /**
     * Every function definition, bodies skipped as units so nested
     * lambdas attribute to their enclosing function. The grammar
     * covers trailing const/noexcept/attribute macros, trailing return
     * types and constructor init lists.
     */
    std::vector<FunctionDef> functions;
};

SourceFile parseSource(const std::string &path, const std::string &content);
std::vector<SourceFile> parseSources(const FileSet &files);

/** One function definition in the call graph. */
struct CallNode
{
    FunctionDef def;
    const SourceFile *file = nullptr;
    /** A waiver directly before the definition: its body is not
     *  scanned and it is never a callee. */
    bool exempt = false;
    /** Body lines a line-level waiver covers (its line and the next). */
    std::set<int> allowLines;
    /** Callee node -> line of the first call; self-calls and exempt
     *  callees are left out. */
    std::map<std::size_t, int> callees;
};

struct CallGraph
{
    std::vector<CallNode> nodes;
    /** Base name -> node indices. */
    std::map<std::string, std::vector<std::size_t>> byName;
};

/**
 * Call graph over the definitions in `src/` files: callees are the
 * base names a body calls, matched against every definition of that
 * name. `waiver` is the marker macro (e.g. "ERC_HOT_PATH_ALLOW"),
 * read from the raw text so trailing comments work: inside a body a
 * `waiver("reason")` covers its own line and the next; outside every
 * body it exempts the next definition in the file.
 */
CallGraph buildCallGraph(const std::vector<SourceFile> &sources,
                         const std::string &waiver);

/** Directed graph over named nodes; edge targets without an entry of
 *  their own are ignored. */
using Digraph = std::map<std::string, std::vector<std::string>>;

/** One cyclic strongly connected component. */
struct Cycle
{
    /** Members, sorted. */
    std::vector<std::string> members;
    /** A concrete cycle from the first member back to it (a, b, a). */
    std::vector<std::string> path;
};

/** Components with more than one member or a self-edge, found with
 *  an iterative Tarjan SCC (deep graphs cannot overflow the stack). */
std::vector<Cycle> findCycles(const Digraph &graph);

} // namespace erec::analyze
