/**
 * @file
 * Tests for the lint pack of erec_analyze (tools/analyze/lint_pack.cc):
 * each rule must fire on a seeded violation, stay quiet on the blessed
 * idioms, respect file classes and honor allow() suppressions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "elasticrec/common/error.h"
#include "tools/analyze/analyze.h"

namespace erec::analyze {
namespace {

/** The lint pack's findings for one file. */
std::vector<Finding>
lintContent(const std::string &path, const std::string &content)
{
    Report report;
    lintPack({parseSource(path, content)}, &report);
    return report.findings;
}

bool
hasRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&rule](const Finding &f) { return f.rule == rule; });
}

TEST(LintToolTest, ClassifiesPathsByTopLevelDirectory)
{
    EXPECT_EQ(classifyPath("src/elasticrec/core/planner.cc"),
              FileClass::LibrarySource);
    // The first component relative to the current directory decides,
    // never a `src` component of the checkout path above it.
    const std::string cwd = "/home/u/src/repo";
    EXPECT_EQ(classifyPath(repoRelative("tests/a_test.cpp", cwd)),
              FileClass::TestSource);
    EXPECT_EQ(classifyPath(repoRelative(cwd + "/tests/a_test.cpp", cwd)),
              FileClass::TestSource);
    // A root outside the current directory is a usage error (exit 2).
    EXPECT_THROW(readTree({"/home/u/elsewhere"}, cwd), erec::ConfigError);
    EXPECT_THROW(readTree({"../elsewhere"}, cwd), erec::ConfigError);
    EXPECT_EQ(classifyPath("tests/planner_test.cpp"),
              FileClass::TestSource);
    EXPECT_EQ(classifyPath("bench/bench_util.h"), FileClass::BenchSource);
    EXPECT_EQ(classifyPath("examples/quickstart.cpp"),
              FileClass::ExampleSource);
    EXPECT_EQ(classifyPath("docs/notes.md"), FileClass::Skip);
    EXPECT_EQ(classifyPath("src/elasticrec/core/CMakeLists.txt"),
              FileClass::Skip);
}

TEST(LintToolTest, RawThrowCaughtInLibraryCode)
{
    const std::string bad = "void f() { throw 1; }\n";
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc", bad),
                        "raw-throw"));
    // Allowed in its blessed home and outside the library.
    EXPECT_FALSE(hasRule(lintContent("src/elasticrec/common/error.h",
                                     "#pragma once\nnamespace erec {}\n" +
                                         bad),
                         "raw-throw"));
    EXPECT_FALSE(hasRule(lintContent("tests/a_test.cpp", bad),
                         "raw-throw"));
}

TEST(LintToolTest, ThrowInCommentsAndStringsIgnored)
{
    const std::string ok =
        "// this function throws via erec::fatal\n"
        "/* never throw raw */\n"
        "const char *s = \"throw\";\n";
    EXPECT_FALSE(hasRule(lintContent("src/elasticrec/x/a.cc", ok),
                         "raw-throw"));
}

TEST(LintToolTest, UnseededRandomnessCaughtEverywhere)
{
    for (const char *path :
         {"src/elasticrec/x/a.cc", "tests/a_test.cpp", "bench/b.cpp",
          "examples/e.cpp"}) {
        EXPECT_TRUE(hasRule(
            lintContent(path, "int x = std::rand();\n"),
            "unseeded-random"))
            << path;
    }
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "std::random_device rd;\n"),
                        "unseeded-random"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "auto t = time(nullptr);\n"),
                        "unseeded-random"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "srand(42);\n"),
                        "unseeded-random"));
    // The seeded-RNG home is exempt; erec::Rng usage is fine anywhere.
    EXPECT_FALSE(hasRule(lintContent("src/elasticrec/common/rng.cc",
                                     "std::random_device rd;\n"),
                         "unseeded-random"));
    EXPECT_FALSE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                     "Rng rng(7); rng.uniform();\n"),
                         "unseeded-random"));
}

TEST(LintToolTest, RawThreadOnlyInRuntimeModule)
{
    const std::string bad = "std::thread t([] {});\n";
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/serving/a.cc", bad),
                        "raw-thread"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.h",
                                    "#pragma once\nnamespace erec {}\n" +
                                        bad),
                        "raw-thread"));
    EXPECT_TRUE(
        hasRule(lintContent("bench/b.cpp", bad), "raw-thread"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "std::jthread t([] {});\n"),
                        "raw-thread"));
    // The pool's own implementation is the blessed home.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/runtime/thread_pool.cc", bad),
        "raw-thread"));
    // Tests may spawn threads freely to exercise concurrency.
    EXPECT_FALSE(hasRule(lintContent("tests/pool_test.cpp", bad),
                         "raw-thread"));
    // Suppressible like every line rule.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "std::thread t; // erec-lint: allow(raw-thread)\n"),
        "raw-thread"));
    // Mentions in comments/strings are stripped before matching.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "// std::thread is banned here\nint x;\n"),
        "raw-thread"));
}

TEST(LintToolTest, RawSleepBannedInLibraryCode)
{
    const std::string bad =
        "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n";
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/serving/a.cc", bad),
                        "raw-sleep"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.h",
                                    "#pragma once\nnamespace erec {}\n"
                                    "std::this_thread::sleep_until(t);\n"),
                        "raw-sleep"));
    // runtime/ gets no free pass: its waits go through condition
    // variables with deadlines, not raw sleeps.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/runtime/thread_pool.cc", bad),
        "raw-sleep"));
    // Tests and benches pace themselves however they like.
    EXPECT_FALSE(hasRule(lintContent("tests/a_test.cpp", bad),
                         "raw-sleep"));
    EXPECT_FALSE(hasRule(lintContent("bench/b.cpp", bad), "raw-sleep"));
    // Suppressible like every line rule.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "std::this_thread::sleep_for(d); "
                    "// erec-lint: allow(raw-sleep)\n"),
        "raw-sleep"));
    // Mentions in comments are stripped before matching.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "// std::this_thread::sleep_for is banned here\n"),
        "raw-sleep"));
}

TEST(LintToolTest, RawIntrinsicsOnlyInKernelsModule)
{
    const std::string inc = "#include <immintrin.h>\n";
    const std::string type = "__m256 v = _mm256_setzero_ps();\n";
    const std::string call =
        "_mm_prefetch(reinterpret_cast<const char *>(p), _MM_HINT_T0);\n";
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/embedding/a.cc", inc),
                        "raw-intrinsics"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/model/a.cc", type),
                        "raw-intrinsics"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc", call),
                        "raw-intrinsics"));
    EXPECT_TRUE(hasRule(lintContent("bench/b.cpp", type),
                        "raw-intrinsics"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.h",
                                    "#pragma once\nnamespace erec {}\n"
                                    "__m512 acc;\n"),
                        "raw-intrinsics"));
    // The kernels module is the blessed home of vector code.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/kernels/backend_avx2.cc",
                    inc + type + call),
        "raw-intrinsics"));
    // Tests compare backends through the registry; the rule does not
    // police them (they have no reason to use intrinsics anyway).
    EXPECT_FALSE(hasRule(lintContent("tests/kernels_test.cpp", type),
                         "raw-intrinsics"));
    // Mentions in comments are stripped before matching.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "// uses _mm256_add_ps( under the hood\nint x;\n"),
        "raw-intrinsics"));
}

TEST(LintToolTest, IostreamOnlyOutsideLibrary)
{
    const std::string inc = "#include <iostream>\n";
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc", inc),
                        "iostream-in-library"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.cc",
                                    "std::cerr << 1;\n"),
                        "iostream-in-library"));
    EXPECT_FALSE(hasRule(lintContent("examples/demo.cpp", inc),
                         "iostream-in-library"));
    EXPECT_FALSE(hasRule(lintContent("bench/b.cpp", inc),
                         "iostream-in-library"));
}

TEST(LintToolTest, SimStdFunctionOnlyOutsideSimHeaders)
{
    const std::string bad =
        "#pragma once\nstruct S { std::function<void()> cb; };\n";
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/sim/event_queue.h", bad),
        "sim-std-function"));
    // Only sim/ library headers are in scope: the event engine's POD
    // dispatch contract does not bind the rest of the library, sim
    // sources, or tests.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/runtime/thread_pool.h", bad),
        "sim-std-function"));
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/sim/cluster_sim.cc",
                    "std::function<void()> cb;\n"),
        "sim-std-function"));
    EXPECT_FALSE(hasRule(lintContent("tests/sim_test.cpp",
                                     "std::function<void()> cb;\n"),
                         "sim-std-function"));
    // Mentions in comments are stripped before matching.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/sim/pod.h",
                    "#pragma once\n// std::function<void()> is banned\n"),
        "sim-std-function"));
    // Escape hatch for a deliberate exception.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/sim/hook.h",
                    "#pragma once\nstd::function<void()> cb; "
                    "// erec-lint: allow(sim-std-function)\n"),
        "sim-std-function"));
}

TEST(LintToolTest, HeaderHygiene)
{
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.h",
                                    "namespace erec {}\n"),
                        "header-pragma-once"));
    EXPECT_TRUE(hasRule(lintContent("src/elasticrec/x/a.h",
                                    "#pragma once\nint x;\n"),
                        "header-namespace"));
    const std::string good =
        "// comment first is fine\n#pragma once\nnamespace erec {}\n";
    const auto diags = lintContent("src/elasticrec/x/a.h", good);
    EXPECT_FALSE(hasRule(diags, "header-pragma-once"));
    EXPECT_FALSE(hasRule(diags, "header-namespace"));
    // Non-library headers need the pragma but not the namespace.
    EXPECT_TRUE(hasRule(lintContent("bench/util.h", "int x;\n"),
                        "header-pragma-once"));
    EXPECT_FALSE(hasRule(lintContent("bench/util.h", "int x;\n"),
                         "header-namespace"));
}

TEST(LintToolTest, AllowCommentSuppresses)
{
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "throw 1; // erec-lint: allow(raw-throw)\n"),
        "raw-throw"));
    // Suppressing one rule does not blanket-suppress others.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "throw std::rand(); // erec-lint: allow(raw-throw)\n"),
        "unseeded-random"));
    // File-scoped suppression for the header rules.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/macros.h",
                    "#pragma once\n// erec-lint: allow(header-namespace)\n"
                    "#define FOO 1\n"),
        "header-namespace"));
}

TEST(LintToolTest, ExcessDefaultParamsFiresOnThreeDefaults)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    // Three defaulted parameters: fires.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "void f(int a = 1, double b = 2.0,\n"
                          "       bool c = true);\n}\n"),
        "excess-default-params"));
    // Two defaults: fine.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "void f(int a, int b = 1, int c = 2);\n}\n"),
        "excess-default-params"));
    // Library headers only; sources and benches are exempt.
    const std::string three =
        "void f(int a = 1, int b = 2, int c = 3);\n";
    EXPECT_FALSE(hasRule(lintContent("src/elasticrec/x/a.cc", three),
                         "excess-default-params"));
    EXPECT_FALSE(hasRule(
        lintContent("bench/util.h", "#pragma once\n" + three),
        "excess-default-params"));
}

TEST(LintToolTest, ExcessDefaultParamsIgnoresNonDefaultEquals)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    // `= default`, `= 0` and comparison operators are not defaults.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "struct S {\n"
                          "  S &operator=(const S &) = default;\n"
                          "  virtual void v() = 0;\n"
                          "  bool ok(int a, int b) { return a == b &&\n"
                          "      a <= b && a >= b && a != b; }\n"
                          "};\n}\n"),
        "excess-default-params"));
    // Defaults hidden inside nested braces (designated initializers)
    // don't count against the enclosing group.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "inline int g() {\n"
                          "  return h({.a = 1, .b = 2, .c = 3});\n"
                          "}\n}\n"),
        "excess-default-params"));
    // Multi-line declarations still count across lines and report the
    // line that opens the parameter list.
    const auto diags = lintContent(
        "src/elasticrec/x/a.h",
        hdr + "void f(\n    int a = 1,\n    int b = 2,\n"
              "    int c = 3);\n}\n");
    ASSERT_TRUE(hasRule(diags, "excess-default-params"));
    for (const auto &d : diags) {
        if (d.rule == "excess-default-params") {
            EXPECT_EQ(d.line, 3);
        }
    }
}

TEST(LintToolTest, ExcessDefaultParamsSuppressible)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    EXPECT_FALSE(hasRule(
        lintContent(
            "src/elasticrec/x/a.h",
            hdr +
                "void f(int a = 1, // erec-lint: allow(excess-default-params)\n"
                "       int b = 2, int c = 3);\n}\n"),
        "excess-default-params"));
}

TEST(LintToolTest, HotPathAnnotationMustPrecedeDeclarator)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    // The blessed form: annotation directly before a declaration.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "ERC_HOT_PATH\nvoid serve(int n);\n}\n"),
        "hot-path-annotation"));
    // Same line is fine too.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "ERC_HOT_PATH void serve(int n);\n}\n"),
        "hot-path-annotation"));
    // Annotating a variable derives no analyzer root: flagged.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "ERC_HOT_PATH\nint counter = 0;\n}\n"),
        "hot-path-annotation"));
    // A dangling annotation at the end of a scope: flagged.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "namespace erec {\nERC_HOT_PATH\n}\n"),
        "hot-path-annotation"));
    // Mentions inside comments are not annotations.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "// ERC_HOT_PATH marks hot roots.\n"
                          "int counter = 0;\n}\n"),
        "hot-path-annotation"));
    // The defining header is exempt (it #defines the macro).
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/common/hotpath.h",
                    "#pragma once\n#define ERC_HOT_PATH\n"
                    "#define ERC_HOT_PATH_ALLOW(reason)\n"
                    "namespace erec {}\n"),
        "hot-path-annotation"));
}

TEST(LintToolTest, HotPathAllowRequiresReason)
{
    const std::string hdr = "#pragma once\nnamespace erec {\n";
    // The waiver is the documentation: a reason string is mandatory.
    EXPECT_FALSE(hasRule(
        lintContent(
            "src/elasticrec/x/a.cc",
            "namespace erec {\nvoid f(std::vector<int> *v) {\n"
            "  v->reserve(8); // ERC_HOT_PATH_ALLOW(\"warm-up only\")\n"
            "}\n}\n"),
        "hot-path-annotation"));
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "namespace erec {\nvoid f(std::vector<int> *v) {\n"
                    "  v->reserve(8); // ERC_HOT_PATH_ALLOW(\"\")\n"
                    "}\n}\n"),
        "hot-path-annotation"));
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/x/a.cc",
                    "namespace erec {\nvoid f(std::vector<int> *v) {\n"
                    "  v->reserve(8); // ERC_HOT_PATH_ALLOW()\n"
                    "}\n}\n"),
        "hot-path-annotation"));
    // The rule itself honors erec-lint allow() like every other rule.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/x/a.h",
                    hdr + "ERC_HOT_PATH // erec-lint: "
                          "allow(hot-path-annotation)\n"
                          "int counter = 0;\n}\n"),
        "hot-path-annotation"));
}

TEST(LintToolTest, TraceNameLiteralCatchesStringSpanNames)
{
    // Inline literal on a record call in library code: flagged.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/serving/a.cc",
                    "namespace erec {\nvoid f(R *r, Ctx c) {\n"
                    "  r->recordSpan(c, \"serving/forward\", 0, 1);\n"
                    "}\n}\n"),
        "trace-name-literal"));
    // A std::string temporary allocates per span.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/sim/a.cc",
                    "namespace erec {\nvoid f(T *t, Ctx c) {\n"
                    "  t->recordSpan(c, std::string(\"queue\"), 0, 1);\n"
                    "}\n}\n"),
        "trace-name-literal"));
    // Formatter-wrapped call: the literal lands on a continuation line.
    EXPECT_TRUE(hasRule(
        lintContent("src/elasticrec/sim/a.cc",
                    "namespace erec {\nvoid f(T *t, Ctx c) {\n"
                    "  t->recordSpan(\n      c, \"mono/queue\",\n"
                    "      start, end);\n}\n}\n"),
        "trace-name-literal"));
    // Interned NameId argument: clean.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/serving/a.cc",
                    "namespace erec {\nconst obs::NameId kName =\n"
                    "    obs::internSpanName(\"serving/forward\");\n"
                    "void f(R *r, Ctx c) {\n"
                    "  r->recordSpan(c, kName, 0, 1);\n}\n}\n"),
        "trace-name-literal"));
    // A prose mention in a comment can't trip the rule.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/serving/a.cc",
                    "namespace erec {\n"
                    "// Call recordSpan(ctx, \"name\", ...) here.\n"
                    "int x = 0;\n}\n"),
        "trace-name-literal"));
    // Tests and benches may use the string overload freely.
    EXPECT_FALSE(hasRule(
        lintContent("tests/a_test.cpp",
                    "t.recordSpan(c, std::string(\"x\"), 0, 1);\n"),
        "trace-name-literal"));
    // Suppressible like every other rule.
    EXPECT_FALSE(hasRule(
        lintContent("src/elasticrec/sim/a.cc",
                    "namespace erec {\nvoid f(T *t, Ctx c) {\n"
                    "  t->recordSpan(c, std::string(\"q\"), 0, 1); "
                    "// erec-lint: allow(trace-name-literal)\n"
                    "}\n}\n"),
        "trace-name-literal"));
}

TEST(LintToolTest, DiagnosticsCarryLocation)
{
    Report report;
    lintPack({parseSource("src/elasticrec/x/a.cc", "int a;\nthrow 1;\n")},
             &report);
    const auto &diags = report.findings;
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 2);
    EXPECT_EQ(diags[0].rule, "raw-throw");
    EXPECT_EQ(diags[0].pack, "lint");
    EXPECT_NE(renderText(report).find(
                  "src/elasticrec/x/a.cc:2: [raw-throw]"),
              std::string::npos);
}

} // namespace
} // namespace erec::analyze
