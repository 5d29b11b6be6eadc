/**
 * @file
 * Tests for the hotpath pack of erec_analyze
 * (tools/analyze/hotpath_pack.cc): annotation parsing, call-graph
 * reachability with concrete paths, ALLOW suppression at both line and
 * function level, false-positive guards for comments/strings/
 * preprocessor text, the runtime/ mutex exemption, the src/-only scope
 * of the call graph, and the JSON rendering contract CI consumes.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "tools/analyze/analyze.h"

namespace an = erec::analyze;

namespace {

/** A full analyzer run, keeping only the hotpath pack's findings. */
an::Report
analyzeHot(const an::FileSet &files)
{
    an::Report report = an::analyze(files, an::LayerConfig{});
    std::erase_if(report.findings,
                  [](const an::Finding &f) { return f.pack != "hotpath"; });
    return report;
}

/** Minimal annotated header: push/pop style hot roots. */
const char *kHotHeader = R"(#pragma once
#define ERC_HOT_PATH
#define ERC_HOT_PATH_ALLOW(reason)
namespace demo {
ERC_HOT_PATH
void serve(int n);
}
)";

an::Report
analyzeSource(const std::string &source)
{
    an::FileSet files;
    files["src/demo.h"] = kHotHeader;
    files["src/demo.cc"] = source;
    return analyzeHot(files);
}

TEST(HotpathTool, CleanHotFunctionPasses)
{
    const auto a = analyzeSource(R"(
namespace demo {
void serve(int n)
{
    int total = 0;
    for (int i = 0; i < n; ++i)
        total += i;
    (void)total;
}
}
)");
    EXPECT_EQ(a.hotRoots, 1u);
    EXPECT_TRUE(a.pass()) << an::renderText(a);
}

TEST(HotpathTool, DirectAllocationFlagged)
{
    const auto a = analyzeSource(R"(
namespace demo {
void serve(int n)
{
    int *p = new int[n];
    delete[] p;
}
}
)");
    ASSERT_EQ(a.findings.size(), 1u) << an::renderText(a);
    EXPECT_EQ(a.findings[0].rule, "heap-alloc");
    EXPECT_EQ(a.findings[0].function, "serve");
}

TEST(HotpathTool, TransitiveReachabilityReportsCallPath)
{
    const auto a = analyzeSource(R"(
namespace demo {
static int sink[8];
static int cursor = 0;
void leaf(int v)
{
    sink[cursor++ & 7] = v;
    throw v;
}
void middle(int v) { leaf(v); }
void serve(int n) { middle(n); }
}
)");
    ASSERT_EQ(a.findings.size(), 1u) << an::renderText(a);
    const auto &v = a.findings[0];
    EXPECT_EQ(v.rule, "throw");
    EXPECT_EQ(v.path.front(), "serve"); // The root.
    ASSERT_EQ(v.path.size(), 3u);
    EXPECT_EQ(v.path[0], "serve");
    EXPECT_EQ(v.path[1], "middle");
    EXPECT_EQ(v.path[2], "leaf");
}

TEST(HotpathTool, UnreachableFunctionsAreNotScanned)
{
    const auto a = analyzeSource(R"(
#include <vector>
namespace demo {
void coldSetup(std::vector<int> *v) { v->push_back(1); }
void serve(int n) { (void)n; }
}
)");
    EXPECT_TRUE(a.pass()) << an::renderText(a);
}

TEST(HotpathTool, TrailingCommentAllowSuppressesLine)
{
    const auto a = analyzeSource(R"(
#include <vector>
namespace demo {
void serve(int n)
{
    std::vector<int> scratch;
    scratch.reserve(8); // ERC_HOT_PATH_ALLOW("reserve-once: amortized")
    (void)n;
}
}
)");
    EXPECT_TRUE(a.pass()) << an::renderText(a);
}

TEST(HotpathTool, PrecedingLineAllowSuppressesNextLine)
{
    const auto a = analyzeSource(R"(
#include <vector>
namespace demo {
void serve(std::vector<int> *out)
{
    // ERC_HOT_PATH_ALLOW("bounded by shard count, reuses capacity")
    out->push_back(1);
}
}
)");
    EXPECT_TRUE(a.pass()) << an::renderText(a);
}

TEST(HotpathTool, AllowDoesNotLeakPastTheNextLine)
{
    const auto a = analyzeSource(R"(
#include <vector>
namespace demo {
void serve(std::vector<int> *out)
{
    out->reserve(4); // ERC_HOT_PATH_ALLOW("warm-up only")
    out->push_back(1);
    out->push_back(2);
}
}
)");
    // The marker covers its own line and the next; the second
    // push_back still fails.
    ASSERT_EQ(a.findings.size(), 1u) << an::renderText(a);
    EXPECT_EQ(a.findings[0].rule, "container-growth");
}

TEST(HotpathTool, FunctionLevelAllowExemptsAndStopsTraversal)
{
    const auto a = analyzeSource(R"(
#include <vector>
namespace demo {
std::vector<int> g;
void helper() { g.push_back(1); }
// ERC_HOT_PATH_ALLOW("driver-side: shares a base name with a root")
void serve(int n)
{
    g.push_back(n);
    helper();
}
}
)");
    // serve is exempt and traversal stops there, so helper (only
    // reachable through serve) is never scanned either.
    EXPECT_TRUE(a.pass()) << an::renderText(a);
}

TEST(HotpathTool, CommentsAndStringsDoNotFlag)
{
    const auto a = analyzeSource(R"(
namespace demo {
const char *describe() { return "calls new and push_back"; }
void serve(int n)
{
    // This comment mentions new, throw and std::cout freely.
    const char *what = describe();
    (void)what;
    (void)n;
}
}
)");
    EXPECT_TRUE(a.pass()) << an::renderText(a);
}

TEST(HotpathTool, AnnotationInCommentCreatesNoRoot)
{
    an::FileSet files;
    files["src/demo.h"] = R"(#pragma once
#define ERC_HOT_PATH
namespace demo {
// A doc mention of ERC_HOT_PATH (this marker) is not an annotation.
void notHot(int n);
}
)";
    files["src/demo.cc"] = R"(
#include <vector>
namespace demo {
void notHot(int n)
{
    std::vector<int> v;
    v.push_back(n);
}
}
)";
    const auto a = analyzeHot(files);
    EXPECT_EQ(a.hotRoots, 0u);
    EXPECT_TRUE(a.pass()) << an::renderText(a);
}

TEST(HotpathTool, MutexLockExemptInRuntimeOnly)
{
    const char *body = R"(
#include <mutex>
namespace demo {
std::mutex m;
ERC_HOT_PATH
void serve(int n)
{
    std::lock_guard<std::mutex> guard(m);
    (void)n;
}
}
)";
    const std::string with_macros =
        std::string("#define ERC_HOT_PATH\n") + body;

    an::FileSet runtime_files;
    runtime_files["src/elasticrec/runtime/q.cc"] = with_macros;
    EXPECT_TRUE(analyzeHot(runtime_files).pass());

    an::FileSet serving_files;
    serving_files["src/elasticrec/serving/q.cc"] = with_macros;
    const auto a = analyzeHot(serving_files);
    ASSERT_EQ(a.findings.size(), 1u) << an::renderText(a);
    EXPECT_EQ(a.findings[0].rule, "mutex-lock");
}

TEST(HotpathTool, BlockingIoAndStringAllocFlagged)
{
    const auto a = analyzeSource(R"(
#include <iostream>
#include <string>
namespace demo {
void serve(int n)
{
    std::cout << n;
    std::string label = std::to_string(n);
    (void)label;
    fflush(stdout);
}
}
)");
    ASSERT_EQ(a.findings.size(), 3u) << an::renderText(a);
    EXPECT_EQ(a.findings[0].rule, "blocking-io");
    EXPECT_EQ(a.findings[1].rule, "string-alloc");
    EXPECT_EQ(a.findings[2].rule, "blocking-io");
}

TEST(HotpathTool, ExtractorHandlesCtorInitListAndTrailingTokens)
{
    const auto defs = an::parseSource("src/x.cc", R"(
struct Widget
{
    explicit Widget(int n) : size_(n), data_{n, n} {}
    int size() const noexcept { return size_; }
    auto doubled() const -> int { return size_ * 2; }
    int size_;
    int data_[2];
};
int freeFn(int v)
{
    auto lambda = [v](int x) { return x + v; };
    return lambda(v);
}
)").functions;
    ASSERT_EQ(defs.size(), 4u);
    EXPECT_EQ(defs[0].name, "Widget");
    EXPECT_EQ(defs[1].name, "size");
    EXPECT_EQ(defs[2].name, "doubled");
    // The lambda body belongs to freeFn, not a separate definition.
    EXPECT_EQ(defs[3].name, "freeFn");
}

TEST(HotpathTool, QualifiedDefinitionNamesAreReported)
{
    const auto defs = an::parseSource("src/x.cc", R"(
namespace outer {
struct S { void method(); };
void S::method() {}
}
)").functions;
    ASSERT_EQ(defs.size(), 1u);
    EXPECT_EQ(defs[0].name, "method");
    EXPECT_EQ(defs[0].display, "S::method");
}

TEST(HotpathTool, JsonRenderingContract)
{
    const auto a = analyzeSource(R"(
namespace demo {
void serve(int n) { int *p = new int[n]; delete[] p; }
}
)");
    const std::string json = an::renderJson(a);
    EXPECT_NE(json.find("\"schema\": \"erec_analyze/v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"pass\": false"), std::string::npos);
    EXPECT_NE(json.find("\"pack\": \"hotpath\""), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"heap-alloc\""), std::string::npos);
    EXPECT_NE(json.find("\"path\": [\"serve\"]"),
              std::string::npos);

    const auto clean = analyzeSource(R"(
namespace demo {
void serve(int n) { (void)n; }
}
)");
    EXPECT_NE(an::renderJson(clean).find("\"pass\": true"),
              std::string::npos);
}

TEST(HotpathTool, TextRenderingSummarizesCounts)
{
    const auto a = analyzeSource(R"(
namespace demo {
void serve(int n) { (void)n; }
}
)");
    const std::string text = an::renderText(a);
    EXPECT_NE(text.find("PASS"), std::string::npos);
    EXPECT_NE(text.find("1 hot roots"), std::string::npos);
}

TEST(HotpathTool, OnlySrcJoinsTheCallGraph)
{
    // A tests/ helper that allocates, locks two mutexes in one order
    // and sleeps under them, sharing its name with a hot callee.
    const char *violating = R"(
#include <mutex>
#include <thread>
#include <vector>
std::mutex a_;
std::mutex b_;
std::vector<int> sink;
void helper(int n)
{
    std::lock_guard<std::mutex> ga(a_);
    std::lock_guard<std::mutex> gb(b_);
    sink.push_back(n);
    std::this_thread::sleep_for(std::chrono::milliseconds(n));
}
)";
    an::FileSet files;
    files["src/demo.h"] = kHotHeader;
    files["src/demo.cc"] = R"(
namespace demo {
void helper(int n);
void serve(int n) { helper(n); }
}
)";
    files["tests/demo_test.cpp"] = violating;
    const auto clean = an::analyze(files, an::LayerConfig{});
    for (const auto &f : clean.findings)
        EXPECT_TRUE(f.pack != "hotpath" && f.pack != "conc")
            << an::renderText(clean);
    EXPECT_EQ(clean.functions, 1u);
    EXPECT_EQ(clean.reachable, 1u);
    EXPECT_EQ(clean.mutexes, 0u);

    // Control: the same helper under src/ is reachable and flagged.
    files["src/helper.cc"] = files["tests/demo_test.cpp"];
    const auto flagged = an::analyze(files, an::LayerConfig{});
    const auto packHits = [&flagged](const std::string &pack) {
        return std::count_if(
            flagged.findings.begin(), flagged.findings.end(),
            [&pack](const an::Finding &f) { return f.pack == pack; });
    };
    EXPECT_GT(packHits("hotpath"), 0) << an::renderText(flagged);
    EXPECT_GT(packHits("conc"), 0) << an::renderText(flagged);
}

TEST(HotpathTool, MultiLineMacroKeepsLineNumbers)
{
    // Every continuation line of a macro is blanked in place, so the
    // definitions after it keep their own line numbers.
    const auto defs = an::parseSource("src/x.cc", R"(#define CHECK(c) \
    do {               \
        if (!(c)) {    \
            fail();    \
        }              \
    } while (0)
int after(int v)
{
    return v;
}
)").functions;
    ASSERT_EQ(defs.size(), 1u);
    EXPECT_EQ(defs[0].name, "after");
    EXPECT_EQ(defs[0].line, 7);
    EXPECT_EQ(defs[0].bodyBeginLine, 8);
}

} // namespace
