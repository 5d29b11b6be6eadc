/**
 * @file
 * Tests for per-stage latency attribution and report rendering
 * (elasticrec/obs/report): span-name normalization, stage aggregation
 * over hand-built span trees, alert-log rollups, the text renderers, a
 * full-simulation cross-check where every query is traced and the
 * attribution totals must match the run's own SimResult accounting,
 * and the same report over a real serving stack's flight recorder.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "elasticrec/core/planner.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/obs/report.h"
#include "elasticrec/obs/trace_schema.h"
#include "elasticrec/runtime/executor.h"
#include "elasticrec/serving/stack_builder.h"
#include "elasticrec/sim/cluster_sim.h"
#include "elasticrec/sim/experiment.h"

namespace erec::obs {
namespace {

TEST(StageOfTest, StripsPerDeploymentSegment)
{
    EXPECT_EQ(stageOf("sparse/rm1-sparse-0/queue"), "sparse/queue");
    EXPECT_EQ(stageOf("sparse/rm1-sparse-0/service"), "sparse/service");
    EXPECT_EQ(stageOf("rpc/rm1-sparse-1/request"), "rpc/request");
    EXPECT_EQ(stageOf("rpc/rm1-sparse-1/response"), "rpc/response");
    // One- and two-segment names are already stage names.
    EXPECT_EQ(stageOf("dense/compute"), "dense/compute");
    EXPECT_EQ(stageOf("mono/queue"), "mono/queue");
    EXPECT_EQ(stageOf("merge"), "merge");
}

constexpr std::uint64_t
childId(std::uint64_t parent, unsigned slot)
{
    return (parent << 8) | (slot + 1);
}

/** One span of trace `trace_id`; parentId follows the structural
 *  encoding of `span_id`. */
SpanEvent
span(std::uint64_t trace_id, std::uint64_t span_id,
     const std::string &name, SimTime start, SimTime end)
{
    return {.traceId = trace_id,
            .spanId = span_id,
            .parentId = parentSpanId(span_id),
            .startUs = start,
            .endUs = end,
            .name = internSpanName(name)};
}

/** The root span that closes a completed trace. */
SpanEvent
rootSpan(std::uint64_t trace_id, SimTime arrival, SimTime completion)
{
    return span(trace_id, kRootSpanId, "query", arrival, completion);
}

TEST(AttributeStagesTest, AggregatesNormalizedStages)
{
    const SimTime ms = units::kMillisecond;
    std::vector<SpanEvent> events;
    // Query 1: 10 ms end to end; queue 2 ms, two shard RPCs 4 ms each.
    events.push_back(span(1, childId(kRootSpanId, 0), "dense/queue", 0,
                          2 * ms));
    events.push_back(span(1, childId(kRootSpanId, 2), "rpc/s0/request",
                          2 * ms, 6 * ms));
    events.push_back(span(1, childId(kRootSpanId, 4), "rpc/s1/request",
                          2 * ms, 6 * ms));
    events.push_back(rootSpan(1, 0, 10 * ms));
    // Query 2: 20 ms end to end; queue 6 ms.
    events.push_back(span(2, childId(kRootSpanId, 0), "dense/queue",
                          100 * ms, 106 * ms));
    events.push_back(rootSpan(2, 100 * ms, 120 * ms));
    // Query 3: lost (no root span) — its spans must not contribute.
    events.push_back(span(3, childId(kRootSpanId, 0), "dense/queue",
                          200 * ms, 201 * ms));

    const auto report = attributeStages(buildSpanTrees(events));
    EXPECT_EQ(report.tracedQueries, 3u);
    EXPECT_EQ(report.completedTraces, 2u);
    EXPECT_EQ(report.lostTraces, 1u);
    EXPECT_DOUBLE_EQ(report.endToEndTotalMs, 30.0);
    EXPECT_DOUBLE_EQ(report.meanEndToEndMs, 15.0);

    // The root span is the end-to-end latency above, not a stage row.
    ASSERT_EQ(report.stages.size(), 2u);
    // dense/queue: 2 + 6 = 8 ms total, rpc/request: 4 + 4 = 8 ms;
    // equal totals tie-break by name.
    EXPECT_EQ(report.stages[0].stage, "dense/queue");
    EXPECT_EQ(report.stages[0].spans, 2u);
    EXPECT_DOUBLE_EQ(report.stages[0].totalMs, 8.0);
    EXPECT_DOUBLE_EQ(report.stages[0].meanMs, 4.0);
    EXPECT_DOUBLE_EQ(report.stages[0].shareOfEndToEnd, 8.0 / 30.0);
    EXPECT_EQ(report.stages[1].stage, "rpc/request");
    EXPECT_EQ(report.stages[1].spans, 2u);
    EXPECT_DOUBLE_EQ(report.stages[1].totalMs, 8.0);
}

TEST(AttributeStagesTest, OpenSpansStayOutOfSketchesButAreCounted)
{
    const SimTime ms = units::kMillisecond;
    std::vector<SpanEvent> events;
    // A completed trace with one closed span and one malformed span
    // (end precedes start): the latter must not poison the stage
    // statistics with a bogus duration.
    events.push_back(rootSpan(1, 0, 10 * ms));
    events.push_back(span(1, childId(kRootSpanId, 0), "dense/queue", 0,
                          2 * ms));
    events.push_back(span(1, childId(kRootSpanId, 1), "dense/compute",
                          5 * ms, 0));
    // A lost trace: every one of its spans is open by definition.
    events.push_back(span(2, childId(kRootSpanId, 0), "dense/queue",
                          50 * ms, 51 * ms));
    events.push_back(span(2, childId(kRootSpanId, 2), "rpc/s0/request",
                          51 * ms, 53 * ms));

    const auto report = attributeStages(buildSpanTrees(events));
    EXPECT_EQ(report.lostTraces, 1u);
    // 1 open span on the completed trace + 2 on the lost trace.
    EXPECT_EQ(report.openSpans, 3u);
    // Only the closed dense/queue span of the completed trace reaches
    // the sketches: no dense/compute stage, no rpc/request stage, and
    // exactly one counted span.
    ASSERT_EQ(report.stages.size(), 1u);
    EXPECT_EQ(report.stages[0].stage, "dense/queue");
    EXPECT_EQ(report.stages[0].spans, 1u);
    EXPECT_DOUBLE_EQ(report.stages[0].totalMs, 2.0);
}

TEST(CriticalPathTest, FollowsTheChildThatBoundsCompletion)
{
    const SimTime ms = units::kMillisecond;
    const std::uint64_t rpc_id = childId(kRootSpanId, 2);
    std::vector<SpanEvent> events;
    for (std::uint64_t id = 1; id <= 2; ++id) {
        events.push_back(rootSpan(id, 0, 10 * ms));
        // The gather RPC (ends at 9 ms) bounds completion; dense
        // compute (5 ms) does not.
        events.push_back(span(id, rpc_id, "rpc/s0/request", 0, 9 * ms));
        events.push_back(span(id, childId(rpc_id, 1),
                              "sparse/s0/service", 2 * ms, 8 * ms));
        events.push_back(span(id, childId(kRootSpanId, 1),
                              "dense/compute", 0, 5 * ms));
    }
    // A lost trace (no root span) contributes nothing to critical
    // paths.
    events.push_back(span(9, rpc_id, "rpc/s0/request", 0, 20 * ms));

    const auto report = analyzeCriticalPaths(buildSpanTrees(events));
    EXPECT_EQ(report.analyzedTraces, 2u);
    ASSERT_EQ(report.chains.size(), 1u);
    // Per-deployment segments normalize away, so many-shard runs
    // aggregate into a handful of readable chains.
    EXPECT_EQ(report.chains[0].chain,
              "query > rpc/request > sparse/service");
    EXPECT_EQ(report.chains[0].count, 2u);
    EXPECT_DOUBLE_EQ(report.chains[0].meanMs, 10.0);
}

TEST(AttributeStagesTest, EmptyInputYieldsEmptyReport)
{
    const auto report = attributeStages(std::vector<SpanTree>{});
    EXPECT_TRUE(report.stages.empty());
    EXPECT_EQ(report.tracedQueries, 0u);
    EXPECT_DOUBLE_EQ(report.endToEndTotalMs, 0.0);
}

TEST(SummarizeAlertsTest, RollsUpTransitionsPerAlert)
{
    std::vector<AlertEvent> events;
    events.push_back({1 * units::kSecond, "a", true, 2.0});
    events.push_back({2 * units::kSecond, "a", false, 0.5});
    events.push_back({3 * units::kSecond, "b", true, 9.0});
    events.push_back({4 * units::kSecond, "a", true, 3.0});

    const auto verdicts = summarizeAlerts(events);
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_EQ(verdicts[0].alert, "a");
    EXPECT_EQ(verdicts[0].fired, 2u);
    EXPECT_EQ(verdicts[0].resolved, 1u);
    EXPECT_TRUE(verdicts[0].firingAtEnd);
    EXPECT_EQ(verdicts[1].alert, "b");
    EXPECT_EQ(verdicts[1].fired, 1u);
    EXPECT_EQ(verdicts[1].resolved, 0u);
    EXPECT_TRUE(verdicts[1].firingAtEnd);
    EXPECT_TRUE(summarizeAlerts({}).empty());
}

TEST(ReportRenderTest, SectionsAreSelfDescribing)
{
    std::ostringstream empty_table;
    writeStageTable(empty_table, attributeStages(std::vector<SpanTree>{}));
    EXPECT_NE(empty_table.str().find("no completed traces"),
              std::string::npos);

    std::ostringstream empty_paths;
    writeCriticalPathTable(empty_paths,
                           analyzeCriticalPaths(std::vector<SpanTree>{}));
    EXPECT_NE(empty_paths.str().find("no completed traces"),
              std::string::npos);

    std::ostringstream pass;
    writeSloVerdicts(pass, {});
    EXPECT_NE(pass.str().find("PASS"), std::string::npos);

    std::vector<AlertEvent> events = {
        {5 * units::kSecond, "lost-queries", true, 3.0}};
    std::ostringstream verdicts;
    writeSloVerdicts(verdicts, summarizeAlerts(events));
    EXPECT_NE(verdicts.str().find("lost-queries"), std::string::npos);

    std::ostringstream timeline;
    writeAlertTimeline(timeline, events);
    EXPECT_NE(timeline.str().find("FIRING"), std::string::npos);
    std::ostringstream no_timeline;
    writeAlertTimeline(no_timeline, {});
    EXPECT_NE(no_timeline.str().find("empty"), std::string::npos);
}

TEST(ReportSimTest, StageSumsCrossCheckSimResult)
{
    // Trace every query, then the attribution totals are not samples
    // but the exact population the SimResult accounted.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    core::Planner planner = core::Planner::forPlatform(config, node);
    const auto plan = planner.planElasticRec({sim::cdfFor(config, 256)});
    sim::SimOptions opt;
    opt.seed = 11;
    opt.traceSampleEvery = 1;
    sim::ClusterSimulation sim(plan, node,
                               workload::TrafficPattern::constant(25.0),
                               opt);
    const auto r = sim.run(2 * units::kMinute);
    ASSERT_GT(r.completed, 0u);

    const auto report = attributeStages(buildSpanTrees(sim.traces()));
    EXPECT_EQ(report.completedTraces, r.completed);
    // A query still in flight at the end is a lost trace once it has
    // closed a span; before that it has no record at all.
    EXPECT_LE(report.tracedQueries, r.arrivals);
    EXPECT_LE(report.lostTraces, r.arrivals - r.completed);

    // Mean end-to-end latency of the traces is the run's mean latency.
    EXPECT_NEAR(report.meanEndToEndMs, r.meanLatencyMs,
                1e-9 * r.meanLatencyMs);
    EXPECT_NEAR(report.endToEndTotalMs,
                r.meanLatencyMs * static_cast<double>(r.completed),
                1e-6 * report.endToEndTotalMs);

    // Every span lies inside its query, so a stage with one span per
    // query (the frontend stages) cannot contribute more than the
    // summed end-to-end latency; fan-out stages (one span per shard
    // RPC) may, which is exactly the overlap the report calls out.
    ASSERT_FALSE(report.stages.empty());
    bool saw_frontend_stage = false;
    for (const auto &stage : report.stages) {
        EXPECT_GT(stage.spans, 0u) << stage.stage;
        if (stage.spans == report.completedTraces) {
            saw_frontend_stage = true;
            EXPECT_LE(stage.totalMs,
                      report.endToEndTotalMs * (1 + 1e-9))
                << stage.stage;
        }
        EXPECT_NEAR(stage.totalMs / report.endToEndTotalMs,
                    stage.shareOfEndToEnd, 1e-12)
            << stage.stage;
    }
    EXPECT_TRUE(saw_frontend_stage);
}

TEST(ReportServingTest, ReportsARealStackDrain)
{
    // The same report over the real serving stack: spans drained from
    // its flight recorder, no serving-specific code.
    auto config = model::rm1();
    config.name = "tiny";
    config.rowsPerTable = 500;
    config.numTables = 3;
    config.poolingFactor = 6;
    config.batchSize = 4;
    auto dlrm = std::make_shared<model::Dlrm>(config);
    serving::StackOptions options;
    options.executor = std::make_shared<runtime::Executor>(
        runtime::ExecutorOptions{.workers = 0});
    options.traceSampleEvery = 1;
    auto stack = serving::buildElasticRecStack(
        dlrm, {serving::TablePlan{.boundaries = {10, 100, 500}}},
        options);
    ASSERT_NE(stack.recorder, nullptr);

    workload::QueryShape shape;
    shape.batchSize = config.batchSize;
    shape.numTables = config.numTables;
    shape.gathersPerItem = config.poolingFactor;
    workload::QueryGenerator gen(
        shape,
        std::make_shared<workload::LocalityDistribution>(
            config.rowsPerTable, 0.9),
        /*seed=*/5);
    constexpr std::uint64_t kQueries = 8;
    for (std::uint64_t i = 0; i < kQueries; ++i)
        stack.submit(gen.next()).get();
    stack.dispatcher->drain();
    // A batch trace on the same recorder is not a query.
    const TraceContext batch = stack.recorder->startBatchTrace();
    stack.recorder->recordSpan(batch, internSpanName("serving/batch"),
                               0, 1, kQueries);
    stack.recorder->recordLink(batch,
                               internSpanName("serving/batch_link"), 1,
                               0);

    const std::vector<SpanEvent> events = stack.recorder->drain();
    EXPECT_EQ(validateTraceSchema(events), std::vector<std::string>{});
    const auto trees = buildSpanTrees(events);
    const auto stages = attributeStages(trees);
    EXPECT_EQ(stages.tracedQueries, kQueries);
    EXPECT_EQ(stages.completedTraces, kQueries);
    EXPECT_EQ(stages.lostTraces, 0u);
    EXPECT_EQ(stages.openSpans, 0u);
    for (const auto &stage : stages.stages)
        EXPECT_NE(stage.stage, "serving/batch");

    const auto paths = analyzeCriticalPaths(trees);
    EXPECT_EQ(paths.analyzedTraces, kQueries);
    ASSERT_EQ(paths.chains.size(), 1u);
    // Serial mode runs the bottom MLP first, so the last shard gather
    // bounds every query.
    EXPECT_EQ(paths.chains[0].chain,
              "serving/query > serving/serve > rpc/gather > "
              "sparse/gather");
    EXPECT_EQ(paths.chains[0].count, kQueries);
    EXPECT_NEAR(paths.chains[0].meanMs, stages.meanEndToEndMs,
                1e-9 * stages.meanEndToEndMs);
}

} // namespace
} // namespace erec::obs
