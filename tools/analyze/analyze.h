#pragma once

/**
 * @file
 * `erec_analyze`, the repo's static analyzer: four rule packs over the
 * shared source layer (source.h) append to one Finding list, rendered
 * as text or as one JSON document (schema `erec_analyze/v1`). Every
 * invocation runs every pack; each pack picks its files by the first
 * component of the repo-relative path.
 *
 * lint — repo invariants clang-tidy cannot express, by file class
 * (src/ = library code; tests/, bench/, examples/ = the determinism
 * rules plus header-pragma-once; anything else is skipped):
 *  - raw-throw: library code raises errors through erec::fatal /
 *    erec::panic / ERC_CHECK / ERC_ASSERT (common/error.h), never a
 *    raw `throw`, so every error carries the ConfigError/InternalError
 *    taxonomy.
 *  - unseeded-random: no std::rand, srand, std::random_device or
 *    time(nullptr) outside common/rng.* — stochastic code draws from
 *    the seeded erec::Rng so experiments are reproducible.
 *  - raw-thread: no std::thread / std::jthread outside the runtime
 *    module; concurrency goes through runtime::ThreadPool / Executor
 *    (tests may spawn threads freely).
 *  - raw-sleep: no std::this_thread::sleep_for/until in library code;
 *    it defeats the simulator's clock and hides latency from tracing.
 *  - raw-intrinsics: SIMD intrinsics (<immintrin.h>, __m256/__m512
 *    types, _mm*_ calls) live only in the kernels module, so every
 *    vector path has a scalar reference and a bit-identity test.
 *  - iostream-in-library: library code logs through common/logging.h.
 *  - sim-std-function: no std::function in sim/ library headers — the
 *    event engine dispatches POD records, closures heap-allocate.
 *  - header-pragma-once: every header starts with #pragma once.
 *  - header-namespace: library headers declare namespace erec.
 *  - excess-default-params: no parameter list in a library header
 *    declares more than two defaulted parameters; use an options
 *    struct. The waiver sits on the line that opens the list.
 *  - hot-path-annotation: ERC_HOT_PATH (common/hotpath.h) directly
 *    precedes a function declaration (the hotpath pack derives its
 *    roots from that declarator), and ERC_HOT_PATH_ALLOW carries a
 *    non-empty string reason. common/hotpath.h itself is exempt.
 *  - trace-name-literal: span-recording calls (recordSpan) in library
 *    code pass interned obs::NameIds, never a string literal or
 *    std::string temporary that allocates per span.
 * Waiver: a trailing `// erec-lint: allow(<rule>)` on the line; the two
 * header-* rules accept it on any line of the file.
 *
 * arch — the module layer DAG of DESIGN.md §9, over every file:
 *  - layer-edge: a cross-module include must land in the including
 *    module's transitive closure of allowed dependencies, declared in
 *    layers.conf (`*` = unconstrained).
 *  - include-cycle: the file-level include graph is acyclic; a cycle
 *    is reported with a concrete path (a.h -> b.h -> a.h).
 *  - undeclared-module: every scanned module has a layers.conf entry.
 *
 * hotpath — over src/ only (DESIGN.md §10): every function reachable
 * through the call graph from an ERC_HOT_PATH root is scanned for
 * heap-alloc (`new`, make_unique/make_shared, malloc/calloc/realloc),
 * container-growth (push/emplace/insert/resize/reserve member calls;
 * assign() reuses capacity and is exempt), string-alloc (to_string,
 * std::string construction, stringstreams), blocking-io (iostreams,
 * printf-family and C file APIs, fstreams, getline), throw, and
 * mutex-lock (scoped locks or a non-try .lock(); the runtime module's
 * blocking queues are exempt from this rule only). Each finding
 * carries the call path from its root. Waiver:
 * ERC_HOT_PATH_ALLOW("reason") on or above a line, or before a
 * definition to exempt it and stop traversal into it.
 *
 * conc — over src/ only (DESIGN.md §14):
 *  - lock-order-inversion: each scoped-lock site acquires a canonical
 *    mutex keyed `<group>::<name>` (group = path stem, so a header's
 *    member and its sibling .cc agree); holding A while acquiring B,
 *    directly or through a callee's summary, adds edge A -> B, and
 *    every edge in a cycle is reported with its acquisition path.
 *    try_to_lock/defer_lock are not acquisitions; one scoped_lock's
 *    arguments never order against each other.
 *  - blocking-under-lock: sleeps, blocking I/O (the hotpath pattern),
 *    future joins, predicate-less condition-variable waits and calls
 *    into transitively blocking functions inside a held-lock scope.
 *    The runtime module is exempt from reporting only.
 *  - unannotated-mutex: a non-local mutex member in a src/ header
 *    needs an ERC_GUARDED_BY / ERC_PT_GUARDED_BY field naming it in
 *    the same header.
 *  - unguarded-access: a function touching a guarded field acquires
 *    its mutex or carries ERC_REQUIRES / ERC_ACQUIRE / ERC_RELEASE /
 *    ERC_NO_THREAD_SAFETY_ANALYSIS; constructors and destructors are
 *    exempt.
 * Waiver: ERC_CONCLINT_ALLOW("reason") on or above a line (or on a
 * mutex declaration), or before a definition to exempt it entirely.
 */

#include <cstddef>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/source.h"

namespace erec::analyze {

/** One rule violation. */
struct Finding
{
    /** "lint", "arch", "hotpath" or "conc". */
    std::string pack;
    std::string rule;
    /** Repo-relative path; "" for a finding about layers.conf. */
    std::string file;
    int line = 0;
    /** Containing function (hotpath, conc); "" otherwise. */
    std::string function;
    /** Witness, outermost first: the call path from a hot root, an
     *  acquisition path, an include cycle, or a layer edge's modules. */
    std::vector<std::string> path;
    std::string message;
};

/** One lock-acquisition-graph edge. */
struct LockEdge
{
    std::string from; //!< Held mutex key.
    std::string to;   //!< Mutex key acquired while `from` is held.
    /** "fn (file:line)" steps from acquiring `from` to acquiring `to`. */
    std::vector<std::string> path;
};

/** Everything one run found, plus the per-pack counts it prints. */
struct Report
{
    std::size_t files = 0;
    std::size_t includeEdges = 0; //!< arch: resolved first-party edges.
    std::size_t functions = 0;    //!< hotpath/conc: src/ definitions.
    std::size_t hotRoots = 0;     //!< Distinct ERC_HOT_PATH names.
    std::size_t reachable = 0;    //!< Definitions reachable from a root.
    std::size_t mutexes = 0;      //!< Declared canonical mutexes.
    std::size_t lockSites = 0;    //!< Scoped-lock acquisitions.
    std::vector<LockEdge> lockEdges;
    std::vector<Finding> findings;

    bool pass() const { return findings.empty(); }
};

// ---- lint ----

/** Which lint rules apply to a file, from its repo-relative path. */
enum class FileClass
{
    LibrarySource, //!< src/**.cc — all rules.
    LibraryHeader, //!< src/**.h — all rules + the library-header ones.
    TestSource,    //!< tests/** — determinism rules only.
    BenchSource,   //!< bench/**
    ExampleSource, //!< examples/**
    Skip,          //!< Anything else (tools, docs, build trees).
};

/** Classify a repo-relative path by its first component. */
FileClass classifyPath(const std::string &path);

void lintPack(const std::vector<SourceFile> &sources, Report *report);

// ---- arch ----

/** One `#include` directive at a source location. */
struct IncludeDirective
{
    int line = 0;
    /** The path between the delimiters, verbatim. */
    std::string path;
    /** True for <...> (system headers — never graph edges). */
    bool angled = false;
};

/** Include directives recognised on the stripped text, so one in a
 *  comment or literal never counts; the path is read from the raw. */
std::vector<IncludeDirective> extractIncludes(const SourceFile &file);

/** The declared layer DAG, parsed from layers.conf. */
struct LayerConfig
{
    /** Modules in declaration order. */
    std::vector<std::string> order;
    /** module -> directly allowed dependencies. */
    std::map<std::string, std::vector<std::string>> direct;
    /** Modules declared with `*` (may include anything). */
    std::set<std::string> wildcard;
    /** module -> transitive closure of allowed dependencies. */
    std::map<std::string, std::set<std::string>> closure;

    bool declares(const std::string &module) const;
    /** True when `from` may include `to` (closure or wildcard). */
    bool allows(const std::string &from, const std::string &to) const;
};

/**
 * Parse a layers.conf document, one entry per line:
 *
 *     module: dep dep ...     # trailing comments allowed
 *     module: *               # unconstrained (tools/tests/...)
 *     module:                 # bottom layer, no dependencies
 *
 * Raises erec::ConfigError (with the line number) on a line without a
 * `:`, an invalid module name, a duplicate entry, a dependency on an
 * undeclared module, or a cycle among the declarations themselves.
 */
LayerConfig parseLayerConfig(const std::string &text);

/** Quoted includes resolve against the including file's directory,
 *  then `src/<path>`, then the repo root; others make no edge. */
void archPack(const std::vector<SourceFile> &sources,
              const LayerConfig &layers, Report *report);

// ---- hotpath, conc ----

/** Blocking I/O calls: hotpath's blocking-io rule and conc's
 *  blocking-under-lock scan share this one pattern. */
const std::regex &blockingIoPattern();

void hotpathPack(const std::vector<SourceFile> &sources, Report *report);
void concPack(const std::vector<SourceFile> &sources, Report *report);

// ---- one run, one renderer ----

/** Every pack over `files`; findings sorted by file, line and rule. */
Report analyze(const FileSet &files, const LayerConfig &layers);

/** "file:line: [rule] message" lines, each witness path below its
 *  finding, then one summary line with the per-pack counts. */
std::string renderText(const Report &report);

/** Deterministic JSON document (schema erec_analyze/v1). */
std::string renderJson(const Report &report);

} // namespace erec::analyze
