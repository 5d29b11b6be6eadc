/**
 * @file
 * Unit tests for the observability layer: metric registry semantics,
 * histogram bucket boundaries, Prometheus text rendering (escaping,
 * labels, cumulative buckets), span-event JSON-lines round-trips, and
 * the erec_trace/v3 schema validator.
 */

#include <gtest/gtest.h>

#include <limits>

#include "elasticrec/common/error.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/obs/metric.h"
#include "elasticrec/obs/span_name.h"
#include "elasticrec/obs/trace_schema.h"

namespace erec::obs {
namespace {

TEST(HistogramTest, BucketBoundariesAreInclusiveUpper)
{
    // Prometheus semantics: bucket i counts bounds[i-1] < x <= bounds[i].
    Histogram h({1.0, 2.0, 5.0});
    h.observe(0.5); // <= 1.0 -> bucket 0
    h.observe(1.0); // == 1.0 -> bucket 0 (upper bound inclusive)
    h.observe(1.5); // -> bucket 1
    h.observe(2.0); // == 2.0 -> bucket 1
    h.observe(5.0); // == 5.0 -> bucket 2
    h.observe(9.0); // > 5.0 -> +Inf overflow bucket
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u); // +Inf
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 9.0);
}

TEST(HistogramTest, NanDroppedAndNegativesSaturateToZero)
{
    Histogram h({1.0, 2.0});
    h.observe(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 0u) << "NaN must not be counted";
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    // A negative latency is a clock artifact; it lands in the lowest
    // bucket as 0 instead of corrupting the sum.
    h.observe(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, RejectsNonIncreasingBounds)
{
    EXPECT_THROW(Histogram({1.0, 1.0}), ConfigError);
    EXPECT_THROW(Histogram({2.0, 1.0}), ConfigError);
    EXPECT_THROW(Histogram({}), ConfigError);
}

TEST(RegistryTest, HandlesAreStableAndKeyedByLabels)
{
    Registry r;
    Counter &a = r.counter("erec_x_total", "help", {{"d", "one"}});
    Counter &b = r.counter("erec_x_total", "help", {{"d", "two"}});
    Counter &a2 = r.counter("erec_x_total", "help", {{"d", "one"}});
    EXPECT_EQ(&a, &a2);
    EXPECT_NE(&a, &b);
    a.inc();
    a.inc(2.5);
    EXPECT_DOUBLE_EQ(r.value("erec_x_total", {{"d", "one"}}), 3.5);
    EXPECT_DOUBLE_EQ(r.value("erec_x_total", {{"d", "two"}}), 0.0);
}

TEST(RegistryTest, AbsentSeriesReadsZeroWithoutInserting)
{
    Registry r;
    EXPECT_DOUBLE_EQ(r.value("erec_missing", {{"d", "x"}}), 0.0);
    EXPECT_TRUE(r.families().empty());
}

TEST(RegistryTest, KindConflictAndBadNamesThrow)
{
    Registry r;
    r.counter("erec_x_total", "help");
    EXPECT_THROW(r.gauge("erec_x_total", "help"), ConfigError);
    EXPECT_THROW(r.counter("0bad", "help"), ConfigError);
    EXPECT_THROW(r.counter("has space", "help"), ConfigError);
    EXPECT_THROW(r.counter("erec_l", "help", {{"0bad", "v"}}),
                 ConfigError);
}

TEST(RegistryTest, RemoveDropsOnlyTheNamedChild)
{
    Registry r;
    r.gauge("erec_g", "help", {{"pod", "pod-0"}}).set(1);
    r.gauge("erec_g", "help", {{"pod", "pod-1"}}).set(2);
    EXPECT_DOUBLE_EQ(r.sum("erec_g"), 3.0); // Over every label set.
    r.remove("erec_g", {{"pod", "pod-0"}});
    EXPECT_DOUBLE_EQ(r.sum("erec_g"), 2.0);
    EXPECT_DOUBLE_EQ(r.sum("erec_nope"), 0.0);
    EXPECT_DOUBLE_EQ(r.value("erec_g", {{"pod", "pod-0"}}), 0.0);
    EXPECT_DOUBLE_EQ(r.value("erec_g", {{"pod", "pod-1"}}), 2.0);
    r.remove("erec_g", {{"pod", "pod-9"}}); // absent: no-op
    r.remove("erec_nope", {});              // absent family: no-op
}

TEST(ExportTest, EscapesLabelValues)
{
    EXPECT_EQ(escapeLabelValue("plain"), "plain");
    EXPECT_EQ(escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(escapeLabelValue("a\nb"), "a\\nb");
}

TEST(ExportTest, PrometheusTextRendersFamiliesAndLabels)
{
    Registry r;
    r.counter("erec_done_total", "Work done.", {{"deployment", "d\"1"}})
        .inc(3);
    r.gauge("erec_depth", "Queue depth.").set(7);
    const std::string text = toPrometheusText(r);
    EXPECT_NE(text.find("# HELP erec_done_total Work done.\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE erec_done_total counter\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("erec_done_total{deployment=\"d\\\"1\"} 3\n"),
        std::string::npos);
    EXPECT_NE(text.find("# TYPE erec_depth gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("erec_depth 7\n"), std::string::npos);
}

TEST(ExportTest, PrometheusHistogramIsCumulativeWithInf)
{
    Registry r;
    Histogram &h =
        r.histogram("erec_lat_ms", "Latency.", {1.0, 2.0});
    h.observe(0.5);
    h.observe(1.5);
    h.observe(99.0);
    const std::string text = toPrometheusText(r);
    EXPECT_NE(text.find("erec_lat_ms_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("erec_lat_ms_bucket{le=\"2\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("erec_lat_ms_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("erec_lat_ms_count 3\n"), std::string::npos);
    EXPECT_NE(text.find("erec_lat_ms_sum 101\n"), std::string::npos);
}

TEST(ExportTest, SkipsFamiliesWithNoChildren)
{
    // remove() can empty a family (last pod gauge gone); the export
    // must not emit a header-only family, which erec_report rejects.
    Registry r;
    r.gauge("erec_pod_busy", "Busy.", {{"pod", "p0"}}).set(1);
    r.counter("erec_done_total", "Done.").inc();
    r.remove("erec_pod_busy", {{"pod", "p0"}});
    const std::string text = toPrometheusText(r);
    EXPECT_EQ(text.find("erec_pod_busy"), std::string::npos);
    EXPECT_NE(text.find("erec_done_total"), std::string::npos);
}

/** A span event; parentId follows the structural encoding. */
SpanEvent
span(std::uint64_t trace_id, std::uint64_t span_id, NameId name,
     std::int64_t start_us, std::int64_t end_us, std::uint64_t arg = 0)
{
    return {.traceId = trace_id,
            .spanId = span_id,
            .parentId = parentSpanId(span_id),
            .startUs = start_us,
            .endUs = end_us,
            .arg = arg,
            .name = name};
}

TEST(ExportTest, TraceJsonLinesRoundTrip)
{
    const NameId queue = internSpanName("dense/queue");
    const NameId service = internSpanName("sparse/t0-s1/service");

    std::vector<SpanEvent> events;
    events.push_back(span(7, (kRootSpanId << 8) | 1, queue, 1000, 1200));
    events.push_back(
        span(7, (kRootSpanId << 8) | 3, service, 1200, 4000, 0x10001));

    const std::string text = toTraceJsonLines(events);
    const auto back = readTraceJsonLines(text);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].traceId, 7u);
    EXPECT_EQ(back[0].name, queue);
    EXPECT_EQ(back[0].startUs, 1000);
    EXPECT_EQ(back[0].endUs, 1200);
    EXPECT_EQ(back[1].name, service);
    EXPECT_EQ(back[1].arg, 0x10001u);

    // Writing the parsed events again is byte-identical.
    EXPECT_EQ(toTraceJsonLines(back), text);
}

TEST(ExportTest, CausalTraceRoundTripKeepsIdsAndValidates)
{
    const NameId query = internSpanName("query");
    const NameId rpc = internSpanName("rpc/t0-s0/request");

    std::vector<SpanEvent> events;
    // Spans land in close order: the root closes last.
    events.push_back(span(5, (kRootSpanId << 8) | 3, rpc, 1500, 8000));
    events.push_back(span(5, kRootSpanId, query, 1000, 9000));

    // The causal fields survive the JSON-lines round trip.
    const auto back = readTraceJsonLines(toTraceJsonLines(events));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].traceId, 5u);
    EXPECT_EQ(back[0].spanId, (kRootSpanId << 8) | 3);
    EXPECT_EQ(back[0].parentId, kRootSpanId);
    EXPECT_EQ(back[1].spanId, kRootSpanId);
    EXPECT_EQ(back[1].parentId, 0u);

    // And the round-tripped trace satisfies erec_trace/v3.
    EXPECT_EQ(validateTraceSchema(back), std::vector<std::string>{});
}

TEST(TraceSchemaTest, FlagsStructuralViolations)
{
    const NameId query = internSpanName("query");
    const NameId backwards = internSpanName("backwards");
    const NameId late = internSpanName("late");
    const NameId orphan = internSpanName("orphan");

    std::vector<SpanEvent> events;
    // The root span closes before it opens (completion precedes
    // arrival).
    events.push_back(span(1, kRootSpanId, query, 100, 50));
    events.push_back(span(1, (kRootSpanId << 8) | 1, backwards, 400, 300));
    // Outlives the root span.
    events.push_back(span(1, (kRootSpanId << 8) | 2, late, 500, 600));
    // Parent never recorded, though the trace is complete.
    SpanEvent lost_parent = span(1, 99, orphan, 60, 70);
    lost_parent.parentId = 42;
    events.push_back(lost_parent);
    // Zero span ids are invalid.
    events.push_back(span(2, 0, orphan, 0, 1));

    const auto errors = validateTraceSchema(events);
    EXPECT_GE(errors.size(), 5u);

    // The same dangling parent is legitimate on an *open* trace (no
    // root span): its enclosing spans only close at completion, so
    // mid-flight exports must not be rejected for them.
    const std::vector<SpanEvent> open = {events[2], events[3]};
    EXPECT_EQ(validateTraceSchema(open), std::vector<std::string>{});

    // Two root spans under one trace id are a duplicate span id.
    const std::vector<SpanEvent> twice = {span(3, kRootSpanId, query, 0, 5),
                                          span(3, kRootSpanId, query, 0, 5)};
    EXPECT_EQ(validateTraceSchema(twice).size(), 1u);
}

TEST(ExportTest, TraceIdsAtAndAbove2To53RoundTripExactly)
{
    // Doubles stop at 2^53; trace, span and parent ids are full 64-bit.
    const NameId name = internSpanName("test/wide-ids");
    const std::uint64_t two53 = std::uint64_t{1} << 53;
    std::vector<SpanEvent> events;
    events.push_back(span(two53, two53 + 1, name, 0, 1));
    events.push_back(span(two53 + 1, ~std::uint64_t{0}, name, 0, 1));
    events.back().parentId = ~std::uint64_t{0} - 1;

    const auto back = readTraceJsonLines(toTraceJsonLines(events));
    ASSERT_EQ(back.size(), 2u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(back[i].traceId, events[i].traceId);
        EXPECT_EQ(back[i].spanId, events[i].spanId);
        EXPECT_EQ(back[i].parentId, events[i].parentId);
    }
}

TEST(ExportTest, TraceReaderRejectsMalformedInput)
{
    EXPECT_THROW(readTraceJsonLines("not json\n"), ConfigError);
    EXPECT_THROW(readTraceJsonLines("{\"trace_id\":1\n"), ConfigError);
    EXPECT_THROW(readTraceJsonLines("{\"mystery_key\":1}\n"),
                 ConfigError);
    // Every key is required.
    EXPECT_THROW(readTraceJsonLines("{\"trace_id\":1,\"span_id\":1}\n"),
                 ConfigError);
}

TEST(ExportTest, JsonEscapesSpanNames)
{
    const NameId weird = internSpanName("we\"ird\\name");
    const std::string text =
        toTraceJsonLines({span(1, kRootSpanId, weird, 0, 1)});
    EXPECT_NE(text.find("we\\\"ird\\\\name"), std::string::npos);
    const auto back = readTraceJsonLines(text);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(spanName(back[0].name), "we\"ird\\name");
}

} // namespace
} // namespace erec::obs
