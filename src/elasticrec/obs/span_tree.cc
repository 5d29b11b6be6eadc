#include "elasticrec/obs/span_tree.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace erec::obs {

namespace {

void
appendNode(std::ostringstream &oss, const SpanTree &tree,
           std::size_t index, int depth)
{
    const SpanNode &node = tree.nodes[index];
    for (int i = 0; i < depth; ++i)
        oss << "  ";
    oss << spanName(node.event.name);
    if (node.event.arg != 0)
        oss << " #" << node.event.arg;
    oss << '\n';
    for (const std::size_t child : node.children)
        appendNode(oss, tree, child, depth + 1);
}

} // namespace

std::vector<SpanTree>
buildSpanTrees(std::vector<SpanEvent> events)
{
    // Ordered map: trees come back sorted by trace id.
    std::map<std::uint64_t, SpanTree> by_trace;
    for (const SpanEvent &e : events) {
        SpanTree &tree = by_trace[e.traceId];
        tree.traceId = e.traceId;
        tree.nodes.push_back({e, {}});
    }

    std::vector<SpanTree> trees;
    trees.reserve(by_trace.size());
    for (auto &[trace_id, tree] : by_trace) {
        // Span-id order is slot-derived, hence deterministic across
        // schedules; it also places every parent before its children
        // (child ids extend the parent id by one low byte).
        std::sort(tree.nodes.begin(), tree.nodes.end(),
                  [](const SpanNode &a, const SpanNode &b) {
                      return a.event.spanId < b.event.spanId;
                  });
        std::map<std::uint64_t, std::size_t> index_of;
        for (std::size_t i = 0; i < tree.nodes.size(); ++i)
            index_of[tree.nodes[i].event.spanId] = i;
        tree.root = 0;
        const auto root_it = index_of.find(kRootSpanId);
        if (root_it != index_of.end())
            tree.root = root_it->second;
        for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
            if (i == tree.root)
                continue;
            const auto parent =
                index_of.find(tree.nodes[i].event.parentId);
            // Orphans (parent lost to ring overflow) go to the root.
            const std::size_t p = parent != index_of.end()
                                      ? parent->second
                                      : tree.root;
            if (p != i)
                tree.nodes[p].children.push_back(i);
        }
        trees.push_back(std::move(tree));
    }
    return trees;
}

std::string
canonicalTreeText(const SpanTree &tree)
{
    std::ostringstream oss;
    oss << "trace " << tree.traceId << '\n';
    if (!tree.nodes.empty())
        appendNode(oss, tree, tree.root, 1);
    return oss.str();
}

std::string
canonicalForestText(const std::vector<SpanTree> &trees)
{
    std::ostringstream oss;
    for (const SpanTree &tree : trees)
        oss << canonicalTreeText(tree);
    return oss.str();
}

} // namespace erec::obs
