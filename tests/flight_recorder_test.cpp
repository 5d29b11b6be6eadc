/**
 * @file
 * Unit tests for the causal-tracing primitives: interned span names,
 * structural TraceContext span-id encoding, the SPSC SpanRing's
 * overflow-drops contract, the FlightRecorder's deterministic
 * every-Nth sampling and drain protocol, span-tree assembly with its
 * canonical (timestamp-free) text form, and the Perfetto exporter
 * against its own erec_trace/v3 validator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "elasticrec/common/json.h"
#include "elasticrec/obs/flight_recorder.h"
#include "elasticrec/obs/perfetto.h"
#include "elasticrec/obs/span_name.h"
#include "elasticrec/obs/span_tree.h"
#include "elasticrec/obs/trace_context.h"

namespace erec::obs {
namespace {

TEST(SpanNameTest, InternIsIdempotentAndResolvable)
{
    const NameId a = internSpanName("test/alpha");
    const NameId b = internSpanName("test/beta");
    EXPECT_NE(a, kInvalidNameId);
    EXPECT_NE(b, kInvalidNameId);
    EXPECT_NE(a, b);
    // Re-interning returns the same id, not a new slot.
    EXPECT_EQ(internSpanName("test/alpha"), a);
    EXPECT_EQ(spanName(a), "test/alpha");
    EXPECT_EQ(spanName(b), "test/beta");
    // Corrupt ids resolve to a sentinel instead of crashing exporters.
    EXPECT_EQ(spanName(kInvalidNameId), "<invalid>");
    EXPECT_EQ(spanName(static_cast<NameId>(1u << 30)), "<invalid>");
}

TEST(TraceContextTest, ChildIdsAreStructuralAndInvertible)
{
    const TraceContext unsampled;
    EXPECT_FALSE(unsampled.sampled());

    const TraceContext root{7, kRootSpanId};
    EXPECT_TRUE(root.sampled());
    EXPECT_EQ(parentSpanId(kRootSpanId), 0u);

    // child(slot) packs the slot into the low byte of a shifted parent
    // id, so ids depend only on the query's path through the stages —
    // never on scheduling — and parentSpanId() inverts the step.
    const TraceContext queue = root.child(0);
    const TraceContext serve = root.child(1);
    EXPECT_EQ(queue.spanId, (kRootSpanId << 8) | 1u);
    EXPECT_EQ(serve.spanId, (kRootSpanId << 8) | 2u);
    EXPECT_EQ(parentSpanId(queue.spanId), kRootSpanId);
    EXPECT_EQ(parentSpanId(serve.spanId), kRootSpanId);
    EXPECT_EQ(queue.traceId, root.traceId);

    // Nesting composes: a grandchild's parent is the child's id.
    const TraceContext gather = serve.child(4);
    EXPECT_EQ(parentSpanId(gather.spanId), serve.spanId);
    EXPECT_EQ(gather.spanId, (serve.spanId << 8) | 5u);
}

TEST(SpanRingTest, OverflowDropsInsteadOfBlocking)
{
    // Capacity rounds up to a power of two.
    SpanRing ring(3);
    EXPECT_EQ(ring.capacity(), 4u);

    SpanEvent e;
    e.traceId = 1;
    for (std::uint64_t i = 0; i < 4; ++i) {
        e.spanId = i + 1;
        EXPECT_TRUE(ring.tryPush(e));
    }
    // A full ring drops and counts; it must never block the producer.
    e.spanId = 99;
    EXPECT_FALSE(ring.tryPush(e));
    EXPECT_FALSE(ring.tryPush(e));
    EXPECT_EQ(ring.drops(), 2u);

    // Draining frees the slots; the dropped events stay dropped.
    std::vector<SpanEvent> out;
    EXPECT_EQ(ring.drainInto(&out), 4u);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.front().spanId, 1u);
    EXPECT_EQ(out.back().spanId, 4u);
    EXPECT_TRUE(ring.tryPush(e));
    EXPECT_EQ(ring.drops(), 2u);
    out.clear();
    EXPECT_EQ(ring.drainInto(&out), 1u);
    EXPECT_EQ(out.front().spanId, 99u);
}

TEST(FlightRecorderTest, SamplingIsDeterministicEveryNth)
{
    FlightRecorder rec({.sampleEvery = 4});
    ASSERT_TRUE(rec.enabled());
    for (std::uint64_t n = 0; n < 12; ++n) {
        const TraceContext ctx = rec.maybeStartTrace();
        if (n % 4 == 0) {
            // Sampled: traceId encodes the submission index, so reruns
            // of the same workload sample the same queries.
            EXPECT_EQ(ctx.traceId, n + 1);
            EXPECT_EQ(ctx.spanId, kRootSpanId);
        } else {
            EXPECT_FALSE(ctx.sampled());
        }
    }
    EXPECT_EQ(rec.submissions(), 12u);

    // sampleEvery = 0 disables tracing entirely.
    FlightRecorder off({.sampleEvery = 0});
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.maybeStartTrace().sampled());
    EXPECT_EQ(off.submissions(), 0u);
}

TEST(FlightRecorderTest, RecordAndDrainRoundTrip)
{
    const NameId name = internSpanName("test/roundtrip");
    FlightRecorder rec({.sampleEvery = 1, .ringCapacity = 64});
    const TraceContext root = rec.maybeStartTrace();
    ASSERT_TRUE(root.sampled());

    rec.recordSpan(root.child(0), name, 10, 20, /*arg=*/42);

    const auto events = rec.drain();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(rec.droppedEvents(), 0u);

    const SpanEvent &span = events[0];
    EXPECT_EQ(span.traceId, root.traceId);
    EXPECT_EQ(span.spanId, root.childSpanId(0));
    EXPECT_EQ(span.parentId, root.spanId);
    EXPECT_EQ(span.startUs, 10);
    EXPECT_EQ(span.endUs, 20);
    EXPECT_EQ(span.arg, 42u);
    EXPECT_EQ(span.name, name);

    // Drain moves, not copies: a second drain is empty.
    EXPECT_TRUE(rec.drain().empty());
}

/** Events of one synthetic query trace, in a scrambled record order. */
std::vector<SpanEvent>
syntheticTrace(std::uint64_t trace_id)
{
    const NameId query = internSpanName("test/query");
    const NameId queue = internSpanName("test/queue");
    const NameId serve = internSpanName("test/serve");
    const NameId gather = internSpanName("test/gather");

    const TraceContext root{trace_id, kRootSpanId};
    const auto span = [&](const TraceContext &ctx, NameId n,
                          std::uint64_t arg = 0) {
        SpanEvent e;
        e.traceId = ctx.traceId;
        e.spanId = ctx.spanId;
        e.parentId = parentSpanId(ctx.spanId);
        e.name = n;
        e.arg = arg;
        return e;
    };
    // Recorded out of tree order on purpose: assembly must not depend
    // on the order events were drained in.
    return {span(root.child(1).child(0), gather, 3),
            span(root, query),
            span(root.child(1), serve),
            span(root.child(0), queue)};
}

TEST(SpanTreeTest, AssemblyIsOrderIndependentAndCanonical)
{
    auto events = syntheticTrace(5);
    auto reversed = events;
    std::reverse(reversed.begin(), reversed.end());

    const auto trees = buildSpanTrees(events);
    const auto trees2 = buildSpanTrees(reversed);
    ASSERT_EQ(trees.size(), 1u);
    const SpanTree &tree = trees.front();
    EXPECT_EQ(tree.traceId, 5u);
    ASSERT_EQ(tree.nodes.size(), 4u);
    // Root is the kRootSpanId node; its children sit in slot order.
    EXPECT_EQ(tree.nodes[tree.root].event.spanId, kRootSpanId);
    ASSERT_EQ(tree.nodes[tree.root].children.size(), 2u);

    // The canonical text has structure, names and args — and is
    // byte-identical however the events were interleaved.
    const std::string text = canonicalTreeText(tree);
    EXPECT_EQ(text, canonicalTreeText(trees2.front()));
    EXPECT_NE(text.find("test/query"), std::string::npos);
    EXPECT_NE(text.find("test/gather #3"), std::string::npos);
}

TEST(SpanTreeTest, OrphansAttachToRoot)
{
    // An orphan (its parent record was dropped in a ring overflow)
    // must still land in the tree, under the root.
    const NameId orphan = internSpanName("test/orphan");
    auto events = syntheticTrace(1);
    SpanEvent lost;
    lost.traceId = 1;
    lost.spanId = 0xDEAD00;
    lost.parentId = 0xDEAD; // Never recorded.
    lost.name = orphan;
    events.push_back(lost);

    const auto trees = buildSpanTrees(events);
    ASSERT_EQ(trees.size(), 1u);
    const SpanTree &tree = trees[0];
    ASSERT_EQ(tree.nodes.size(), 5u);
    const auto &root_children = tree.nodes[tree.root].children;
    EXPECT_EQ(root_children.size(), 3u);
    EXPECT_NE(canonicalTreeText(tree).find("test/orphan"),
              std::string::npos);
}

TEST(PerfettoTest, DrainedEventsExportAndValidate)
{
    FlightRecorder rec({.sampleEvery = 1, .ringCapacity = 64});
    const TraceContext root = rec.maybeStartTrace();
    rec.recordSpan(root, internSpanName("test/query"), 0, 50);
    rec.recordSpan(root.child(0), internSpanName("test/queue"), 0, 10);

    const std::string json = toPerfettoJson(rec.drain());
    EXPECT_EQ(validatePerfettoJson(json), std::vector<std::string>{});
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

    // The validator is a real gate: broken input must fail it.
    EXPECT_FALSE(validatePerfettoJson("{\"traceEvents\": [").empty());
}

TEST(PerfettoTest, ControlCharactersInNamesStayValid)
{
    const std::string name = "test/tab\there\nline\x01";
    const std::vector<SpanEvent> events = {
        {.traceId = 1,
         .spanId = kRootSpanId,
         .startUs = 0,
         .endUs = 5,
         .name = internSpanName(name)},
    };
    const std::string json = toPerfettoJson(events);
    EXPECT_EQ(validatePerfettoJson(json), std::vector<std::string>{});
    const JsonValue doc = parseJson(json);
    const JsonValue *trace_events = doc.find("traceEvents");
    ASSERT_NE(trace_events, nullptr);
    ASSERT_EQ(trace_events->array.size(), 1u);
    EXPECT_EQ(trace_events->array[0].at("name").asString(), name);
}

TEST(PerfettoTest, RejectsMalformedEventLines)
{
    const std::string a =
        "{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"dur\":1,\"pid\":1,"
        "\"tid\":1}";
    const std::string b =
        "{\"name\":\"b\",\"ph\":\"X\",\"ts\":2,\"dur\":1,\"pid\":1,"
        "\"tid\":1}";
    const auto file = [](const std::string &events) {
        return "{\"traceEvents\":[\n" + events + "]}\n";
    };
    EXPECT_EQ(validatePerfettoJson(file(a + ",\n" + b + "\n")),
              std::vector<std::string>{});

    // The first event lost its closing brace.
    const auto unclosed = validatePerfettoJson(
        file(a.substr(0, a.size() - 1) + ",\n" + b + "\n"));
    ASSERT_EQ(unclosed.size(), 1u);
    EXPECT_NE(unclosed[0].find("event 1"), std::string::npos)
        << unclosed[0];

    // No comma between the two events.
    const auto no_comma = validatePerfettoJson(file(a + "\n" + b + "\n"));
    ASSERT_EQ(no_comma.size(), 1u);
    EXPECT_NE(no_comma[0].find("event 2"), std::string::npos)
        << no_comma[0];
}

} // namespace
} // namespace erec::obs
