#include "elasticrec/obs/trace_schema.h"

#include <algorithm>
#include <sstream>

#include "elasticrec/obs/span_tree.h"

namespace erec::obs {

namespace {

void
validateOne(const SpanTree &tree, std::vector<std::string> *errors)
{
    const auto fail = [&](const std::string &what) {
        std::ostringstream oss;
        oss << "trace " << (tree.traceId & ~kBatchTraceBit)
            << (tree.isBatch() ? " (batch)" : "") << ": " << what;
        errors->push_back(oss.str());
    };
    const auto named = [](const SpanEvent &e) {
        return "span '" + spanName(e.name) + "'";
    };

    if (tree.traceId == 0)
        fail("zero trace id");
    const bool complete = tree.complete();
    const SpanEvent *root =
        complete ? &tree.nodes[tree.root].event : nullptr;
    for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
        const SpanEvent &span = tree.nodes[i].event;
        if (span.spanId == 0)
            fail(named(span) + " has a zero span id");
        if (span.endUs < span.startUs)
            fail(named(span) + " ends before it starts");
        // Nodes are sorted by span id: duplicates sit side by side.
        if (i > 0 && tree.nodes[i - 1].event.spanId == span.spanId)
            fail("duplicate span id " + std::to_string(span.spanId));
        if (root != nullptr &&
            (span.startUs < root->startUs || span.endUs > root->endUs))
            fail(named(span) + " lies outside the root span");
        if (span.parentId == 0)
            continue;
        const auto parent = std::lower_bound(
            tree.nodes.begin(), tree.nodes.end(), span.parentId,
            [](const SpanNode &n, std::uint64_t id) {
                return n.event.spanId < id;
            });
        if (parent == tree.nodes.end() ||
            parent->event.spanId != span.parentId) {
            if (complete)
                fail(named(span) + " links to missing parent " +
                     std::to_string(span.parentId));
            continue;
        }
        if (parent->event.startUs > span.endUs)
            fail(named(span) + " completes before its parent " +
                 named(parent->event) + " starts");
    }
    for (const SpanEvent &link : tree.links)
        if (link.arg == 0)
            fail("link '" + spanName(link.name) +
                 "' names no member trace");
}

} // namespace

std::vector<std::string>
validateTraceSchema(const std::vector<SpanEvent> &events)
{
    std::vector<std::string> errors;
    for (const SpanTree &tree : buildSpanTrees(events))
        validateOne(tree, &errors);
    return errors;
}

} // namespace erec::obs
