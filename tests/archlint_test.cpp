/**
 * @file
 * Tests for the arch pack of erec_analyze (tools/analyze/arch_pack.cc):
 * include extraction must ignore comments and string literals, the
 * layer check must honor the transitive closure of layers.conf,
 * cycles must be reported with a concrete path, malformed configs
 * must raise erec::ConfigError (the CLI's exit 2), and the JSON
 * rendering is pinned by a golden document (it is uploaded as a CI
 * artifact, so its shape is a contract).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "elasticrec/common/error.h"
#include "tools/analyze/analyze.h"

namespace erec::analyze {
namespace {

/**
 * The layer DAG used throughout: serving and cluster sit on runtime,
 * runtime on obs and common — so closure(serving) = {runtime, obs,
 * common}, and cluster is *not* reachable from common or serving.
 */
const char *kConf =
    "# test DAG\n"
    "common:\n"
    "obs: common\n"
    "runtime: common obs   # trailing comments are fine\n"
    "serving: runtime\n"
    "cluster: runtime\n"
    "tests: *\n";

std::string
lib(const std::string &module, const std::string &name)
{
    return "src/elasticrec/" + module + "/" + name;
}

/** A full analyzer run, keeping only the arch pack's findings. */
Report
analyzeArch(const FileSet &files, const LayerConfig &config)
{
    Report report = analyze(files, config);
    std::erase_if(report.findings,
                  [](const Finding &f) { return f.pack != "arch"; });
    return report;
}

TEST(ArchLintTest, ExtractIncludesIgnoresCommentsAndStrings)
{
    const std::string content =
        "#pragma once\n"
        "// #include \"elasticrec/cluster/hpa.h\"\n"
        "/* #include \"elasticrec/cluster/metrics.h\" */\n"
        "#include \"elasticrec/common/units.h\"\n"
        "#include <vector>\n"
        "const char *s = \"#include \\\"elasticrec/sim/pod.h\\\"\";\n"
        "const char *r = R\"(\n"
        "#include \"elasticrec/sim/csv.h\"\n"
        ")\";\n";
    const auto includes =
        extractIncludes(parseSource("src/elasticrec/x/a.h", content));
    ASSERT_EQ(includes.size(), 2u);
    EXPECT_EQ(includes[0].path, "elasticrec/common/units.h");
    EXPECT_EQ(includes[0].line, 4);
    EXPECT_FALSE(includes[0].angled);
    EXPECT_EQ(includes[1].path, "vector");
    EXPECT_TRUE(includes[1].angled);
}

TEST(ArchLintTest, ModuleOfMapsLibraryAndTopLevelPaths)
{
    EXPECT_EQ(moduleOf("src/elasticrec/core/planner.h"), "core");
    EXPECT_EQ(moduleOf("src/elasticrec/obs/slo.cc"), "obs");
    EXPECT_EQ(moduleOf("tools/analyze/arch_pack.cc"), "tools");
    EXPECT_EQ(moduleOf("tests/planner_test.cpp"), "tests");
    EXPECT_EQ(moduleOf("bench/bench_util.h"), "bench");
    EXPECT_EQ(moduleOf("./src/elasticrec/hw/platform.h"), "hw");
}

TEST(ArchLintTest, ParseLayerConfigBuildsTransitiveClosure)
{
    const auto config = parseLayerConfig(kConf);
    EXPECT_EQ(config.order.size(), 6u);
    EXPECT_TRUE(config.declares("serving"));
    EXPECT_TRUE(config.wildcard.count("tests"));
    // Direct: serving -> runtime only; closure adds obs and common.
    EXPECT_TRUE(config.allows("serving", "runtime"));
    EXPECT_TRUE(config.allows("serving", "obs"));
    EXPECT_TRUE(config.allows("serving", "common"));
    EXPECT_FALSE(config.allows("serving", "cluster"));
    EXPECT_FALSE(config.allows("common", "obs"));
    // Intra-module and wildcard are always allowed.
    EXPECT_TRUE(config.allows("common", "common"));
    EXPECT_TRUE(config.allows("tests", "cluster"));
}

TEST(ArchLintTest, MalformedConfigRaisesConfigError)
{
    // Each of these maps to exit 2 in the CLI (benchdiff convention).
    EXPECT_THROW(parseLayerConfig("common\n"), erec::ConfigError);
    EXPECT_THROW(parseLayerConfig("bad name: common\n"),
                 erec::ConfigError);
    EXPECT_THROW(parseLayerConfig("a:\na:\n"), erec::ConfigError);
    EXPECT_THROW(parseLayerConfig("a: ghost\n"), erec::ConfigError);
    EXPECT_THROW(parseLayerConfig("a: a\n"), erec::ConfigError);
    // The declared DAG itself must be acyclic.
    EXPECT_THROW(parseLayerConfig("a: b\nb: a\n"), erec::ConfigError);
    // Line numbers point at the offending entry.
    try {
        parseLayerConfig("common:\nbroken line\n");
        FAIL() << "expected ConfigError";
    } catch (const erec::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(ArchLintTest, TransitiveClosureEdgesPassTheGate)
{
    const FileSet files = {
        {lib("common", "units.h"), "#pragma once\n"},
        {lib("obs", "metric.h"),
         "#include \"elasticrec/common/units.h\"\n"},
        {lib("runtime", "executor.h"),
         "#include \"elasticrec/obs/metric.h\"\n"},
        // serving -> common is only allowed *transitively* (via
        // runtime -> obs -> common); the gate must accept it.
        {lib("serving", "server.h"),
         "#include \"elasticrec/runtime/executor.h\"\n"
         "#include \"elasticrec/common/units.h\"\n"},
    };
    const auto analysis = analyzeArch(files, parseLayerConfig(kConf));
    EXPECT_TRUE(analysis.pass()) << renderText(analysis);
    EXPECT_EQ(analysis.files, 4u);
    EXPECT_EQ(analysis.includeEdges, 4u);
}

TEST(ArchLintTest, InvertedLayerEdgeFailsTheGate)
{
    // The acceptance demo: common/ reaching up into cluster/ inverts
    // the DAG. Violations make the CLI exit 1 with the path printed.
    const FileSet files = {
        {lib("cluster", "hpa.h"), "#pragma once\n"},
        {lib("common", "units.h"),
         "#pragma once\n#include \"elasticrec/cluster/hpa.h\"\n"},
    };
    const auto analysis = analyzeArch(files, parseLayerConfig(kConf));
    ASSERT_FALSE(analysis.pass());
    ASSERT_EQ(analysis.findings.size(), 1u);
    const Finding &v = analysis.findings[0];
    EXPECT_EQ(v.rule, "layer-edge");
    EXPECT_EQ(v.file, lib("common", "units.h"));
    EXPECT_EQ(v.line, 2);
    EXPECT_EQ(v.path, (std::vector<std::string>{"common", "cluster"}));
    // The offending include path is printed in the report.
    EXPECT_NE(renderText(analysis).find("elasticrec/cluster/hpa.h"),
              std::string::npos);
    EXPECT_NE(renderText(analysis).find("FAIL"), std::string::npos);
}

TEST(ArchLintTest, WildcardModulesAreUnconstrained)
{
    const FileSet files = {
        {lib("cluster", "hpa.h"), "#pragma once\n"},
        {"tests/hpa_test.cpp",
         "#include \"elasticrec/cluster/hpa.h\"\n"},
    };
    EXPECT_TRUE(analyzeArch(files, parseLayerConfig(kConf)).pass());
}

TEST(ArchLintTest, UndeclaredModuleFlagged)
{
    const FileSet files = {
        {lib("mystery", "new_thing.h"), "#pragma once\n"},
    };
    const auto analysis = analyzeArch(files, parseLayerConfig(kConf));
    ASSERT_EQ(analysis.findings.size(), 1u);
    EXPECT_EQ(analysis.findings[0].rule, "undeclared-module");
    EXPECT_NE(analysis.findings[0].message.find("mystery"),
              std::string::npos);
}

TEST(ArchLintTest, TwoNodeCycleReportedWithPath)
{
    // Synthetic header cycle (second half of the acceptance demo):
    // a.h <-> b.h must fail the gate with the cycle path printed.
    const FileSet files = {
        {lib("common", "a.h"),
         "#pragma once\n#include \"elasticrec/common/b.h\"\n"},
        {lib("common", "b.h"),
         "#pragma once\n#include \"elasticrec/common/a.h\"\n"},
    };
    const auto analysis = analyzeArch(files, parseLayerConfig(kConf));
    ASSERT_FALSE(analysis.pass());
    ASSERT_EQ(analysis.findings.size(), 1u);
    const Finding &v = analysis.findings[0];
    EXPECT_EQ(v.rule, "include-cycle");
    EXPECT_NE(v.message.find("src/elasticrec/common/a.h -> "
                             "src/elasticrec/common/b.h -> "
                             "src/elasticrec/common/a.h"),
              std::string::npos)
        << v.message;
}

TEST(ArchLintTest, ThreeNodeCycleReportedOnce)
{
    const FileSet files = {
        {lib("common", "a.h"), "#include \"elasticrec/common/b.h\"\n"},
        {lib("common", "b.h"), "#include \"elasticrec/common/c.h\"\n"},
        {lib("common", "c.h"), "#include \"elasticrec/common/a.h\"\n"},
    };
    const auto analysis = analyzeArch(files, parseLayerConfig(kConf));
    ASSERT_EQ(analysis.findings.size(), 1u);
    const std::string &msg = analysis.findings[0].message;
    // The path walks all three members and returns to its start.
    for (const char *member : {"common/a.h", "common/b.h", "common/c.h"})
        EXPECT_NE(msg.find(member), std::string::npos) << msg;
    EXPECT_NE(msg.find("a.h -> "), std::string::npos);
    EXPECT_NE(msg.rfind("-> src/elasticrec/common/a.h"),
              std::string::npos);
}

TEST(ArchLintTest, AcyclicDiamondIsNotACycle)
{
    const FileSet files = {
        {lib("common", "d.h"), "#pragma once\n"},
        {lib("common", "b.h"), "#include \"elasticrec/common/d.h\"\n"},
        {lib("common", "c.h"), "#include \"elasticrec/common/d.h\"\n"},
        {lib("common", "a.h"),
         "#include \"elasticrec/common/b.h\"\n"
         "#include \"elasticrec/common/c.h\"\n"},
    };
    EXPECT_TRUE(analyzeArch(files, parseLayerConfig(kConf)).pass());
}

TEST(ArchLintTest, RelativeAndRootIncludesResolve)
{
    const FileSet files = {
        {"bench/bench_util.h", "#pragma once\n"},
        // Relative include (same directory), tools-rooted include and
        // an unresolvable include (ignored, never an edge).
        {"bench/fig.cpp",
         "#include \"bench_util.h\"\n"
         "#include \"tools/analyze/analyze.h\"\n"
         "#include \"no/such/file.h\"\n"},
        {"tools/analyze/analyze.h", "#pragma once\n"},
    };
    const auto analysis = analyzeArch(
        files, parseLayerConfig("bench: *\ntools: *\n"));
    EXPECT_TRUE(analysis.pass());
    EXPECT_EQ(analysis.includeEdges, 2u);
}

TEST(ArchLintTest, JsonRenderingMatchesGolden)
{
    const FileSet files = {
        {lib("cluster", "hpa.h"), "#pragma once\n"},
        {lib("common", "units.h"),
         "#pragma once\n#include \"elasticrec/cluster/hpa.h\"\n"},
    };
    const auto analysis = analyzeArch(files, parseLayerConfig(kConf));
    const std::string expected =
        "{\n"
        "  \"schema\": \"erec_analyze/v1\",\n"
        "  \"pass\": false,\n"
        "  \"files\": 2,\n"
        "  \"include_edges\": 1,\n"
        "  \"functions\": 0,\n"
        "  \"hot_roots\": 0,\n"
        "  \"reachable\": 0,\n"
        "  \"mutexes\": 0,\n"
        "  \"lock_sites\": 0,\n"
        "  \"lock_edges\": 0,\n"
        "  \"findings\": [\n"
        "    {\n"
        "      \"pack\": \"arch\",\n"
        "      \"rule\": \"layer-edge\",\n"
        "      \"file\": \"src/elasticrec/common/units.h\",\n"
        "      \"line\": 2,\n"
        "      \"function\": \"\",\n"
        "      \"path\": [\"common\", \"cluster\"],\n"
        "      \"message\": \"`common` may not include `cluster` "
        "(elasticrec/cluster/hpa.h); allowed for `common`: <nothing> "
        "— add the edge to layers.conf only if the DAG stays acyclic, "
        "else forward-declare or move code down a layer\"\n"
        "    }\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(renderJson(analysis), expected);

    // Clean trees close the array inline and carry pass=true.
    const auto clean = analyzeArch(
        {{lib("common", "units.h"), "#pragma once\n"}},
        parseLayerConfig(kConf));
    EXPECT_NE(renderJson(clean).find("\"pass\": true"),
              std::string::npos);
    EXPECT_NE(renderJson(clean).find("\"findings\": []"),
              std::string::npos);
}

} // namespace
} // namespace erec::analyze
