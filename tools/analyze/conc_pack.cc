/**
 * @file
 * The conc pack: lock-acquisition graph with inversion cycles,
 * blocking under a held lock, and ERC_GUARDED_BY coverage, over the
 * src/ call graph. Lock scopes are tracked at line/brace granularity:
 * a lock declared on a line is held until its enclosing block closes.
 */

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "tools/analyze/analyze.h"

namespace erec::analyze {

namespace {

/** Canonical group of a path: extension dropped, `src/elasticrec/`
 *  (or `src/`) prefix dropped, so `runtime/fork_join.h` and its
 *  sibling `.cc` share the key `runtime/fork_join`. */
std::string
groupOf(const std::string &path)
{
    std::string stem = path;
    const std::size_t dot = stem.find_last_of('.');
    const std::size_t slash = stem.find_last_of('/');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash))
        stem = stem.substr(0, dot);
    for (const std::string prefix : {"src/elasticrec/", "src/"}) {
        if (stem.rfind(prefix, 0) == 0)
            return stem.substr(prefix.size());
    }
    return stem;
}

/** Last identifier of a member expression ("t.mu" -> "mu"). Returns
 *  "" when the expression does not end in a plain identifier. */
std::string
lastIdentOf(const std::string &expr)
{
    const std::string e = trim(expr);
    std::size_t k = e.size();
    while (k > 0 && isIdentChar(e[k - 1]))
        --k;
    return e.substr(k);
}

/** Split an argument list on top-level commas. */
std::vector<std::string>
splitArgs(const std::string &args)
{
    std::vector<std::string> out;
    int depth = 0;
    std::string cur;
    for (const char c : args) {
        if (c == '(' || c == '<' || c == '[' || c == '{')
            ++depth;
        else if (c == ')' || c == '>' || c == ']' || c == '}')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(trim(cur));
            cur.clear();
            continue;
        }
        cur.push_back(c);
    }
    if (!trim(cur).empty())
        out.push_back(trim(cur));
    return out;
}

/** A function's interprocedural summary. */
struct Summary
{
    /** Mutex key -> acquisition path ("fn (file:line)" steps). */
    std::map<std::string, std::vector<std::string>> acquires;
    /** Non-empty when a call may block: path to the blocking site. */
    std::vector<std::string> blocksPath;
    std::string blocksKind; //!< What the blocking site does.
};

/** A lock held at some point of a body scan. */
struct Held
{
    std::string key;
    int depth = 0; //!< Brace depth at acquisition; released below it.
    int line = 0;  //!< Acquisition line.
};

const std::regex &
lockDeclRe()
{
    // std::lock_guard<M> name(args); / std::scoped_lock name(args);
    // The template argument list and the variable name are optional
    // captures so scoped_lock's CTAD spelling parses too.
    static const std::regex re(
        R"re(\b(lock_guard|unique_lock|shared_lock|scoped_lock)\s*(?:<[^<>;]*(?:<[^<>;]*>)?[^<>;]*>)?\s+([A-Za-z_][A-Za-z0-9_]*)\s*[({]([^;]*?)[)}]\s*;)re");
    return re;
}

/** "Display (file:line)" step for witness paths. */
std::string
step(const CallNode &node, int line)
{
    return node.def.display + " (" + node.file->path + ":" +
           std::to_string(line) + ")";
}

} // namespace

void
concPack(const std::vector<SourceFile> &sources, Report *report)
{
    const CallGraph graph = buildCallGraph(sources, "ERC_CONCLINT_ALLOW");
    const auto &nodes = graph.nodes;
    std::vector<std::string> groups;
    for (const CallNode &node : nodes)
        groups.push_back(groupOf(node.file->path));
    report->functions = nodes.size();

    // ---- Declarations: mutexes, guarded fields, class names. ----
    std::set<std::string> mutexKeys;
    /** name -> keys, for cross-group fallback resolution. */
    std::map<std::string, std::set<std::string>> mutexKeysByName;
    /** group -> (guarded field name -> guarding mutex key). */
    std::map<std::string, std::map<std::string, std::string>> guarded;
    /** group -> class/struct names (ctor/dtor exemption). */
    std::map<std::string, std::set<std::string>> classNames;

    static const std::regex kAllow(R"(ERC_CONCLINT_ALLOW\(\s*\")");
    static const std::regex kMutexDecl(
        R"(\bstd\s*::\s*(?:shared_|recursive_|timed_)?mutex\s+([A-Za-z_][A-Za-z0-9_]*)\s*;)");
    static const std::regex kGuardedField(
        R"(([A-Za-z_][A-Za-z0-9_]*)\s+ERC_(?:PT_)?GUARDED_BY\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\))");
    static const std::regex kClass(
        R"(\b(?:class|struct)\s+([A-Za-z_][A-Za-z0-9_]*))");

    for (const SourceFile &sf : sources) {
        if (topDir(sf.path) != "src")
            continue;
        const std::string group = groupOf(sf.path);
        const bool header = isHeaderPath(sf.path);
        std::set<std::string> guarded_here;
        for (auto it = std::sregex_iterator(sf.code.begin(), sf.code.end(),
                                            kGuardedField);
             it != std::sregex_iterator(); ++it) {
            guarded[group][(*it)[1].str()] = group + "::" + (*it)[2].str();
            guarded_here.insert((*it)[2].str());
        }
        for (auto it = std::sregex_iterator(sf.code.begin(), sf.code.end(),
                                            kClass);
             it != std::sregex_iterator(); ++it)
            classNames[group].insert((*it)[1].str());

        // A waiver on (or above) a declaration lifts its coverage need.
        std::set<int> waived;
        for (std::size_t li = 0; li < sf.rawLines.size(); ++li) {
            if (std::regex_search(sf.rawLines[li], kAllow))
                waived.insert({static_cast<int>(li) + 1,
                               static_cast<int>(li) + 2});
        }
        for (std::size_t li = 0; li < sf.codeLines.size(); ++li) {
            std::smatch m;
            if (!std::regex_search(sf.codeLines[li], m, kMutexDecl))
                continue;
            const int line_no = static_cast<int>(li) + 1;
            const std::string name = m[1].str();
            mutexKeys.insert(group + "::" + name);
            mutexKeysByName[name].insert(group + "::" + name);
            const bool local = std::any_of(
                sf.functions.begin(), sf.functions.end(),
                [line_no](const FunctionDef &def) {
                    return line_no >= def.bodyBeginLine &&
                           line_no <= def.bodyEndLine;
                });
            if (!header || local || waived.count(line_no) ||
                guarded_here.count(name))
                continue;
            report->findings.push_back(
                {"conc", "unannotated-mutex", sf.path, line_no, "", {},
                 "mutex member `" + name + "` has no ERC_GUARDED_BY(" +
                     name + ") field in this header; annotate the data "
                     "it serializes (common/thread_annotations.h) so "
                     "clang -Wthread-safety can check the locking "
                     "discipline"});
        }
    }
    report->mutexes = mutexKeys.size();

    // ---- Resolve a lock argument to a canonical mutex key. ----
    auto resolveMutex = [&](const std::string &expr,
                            const std::string &group) -> std::string {
        const std::string name = lastIdentOf(expr);
        if (name.empty())
            return "";
        const std::string local_key = group + "::" + name;
        if (mutexKeys.count(local_key) != 0)
            return local_key;
        const auto it = mutexKeysByName.find(name);
        if (it != mutexKeysByName.end() && it->second.size() == 1)
            return *it->second.begin();
        // Unknown declaration site: key it to this group so repeated
        // references still collapse to one graph node.
        return local_key;
    };

    // Lock-declaration keys at one match: try_to_lock / defer_lock
    // sites acquire nothing, adopt_lock arguments are skipped, and
    // guards other than scoped_lock take exactly one mutex.
    auto lockKeys = [&](const std::smatch &match, const std::string &group) {
        std::vector<std::string> keys;
        const std::string holder = match[1].str();
        const std::string args = match[3].str();
        if (args.find("try_to_lock") != std::string::npos ||
            args.find("defer_lock") != std::string::npos)
            return keys;
        for (const std::string &arg : splitArgs(args)) {
            if (arg.find("adopt_lock") != std::string::npos)
                continue;
            const std::string key = resolveMutex(arg, group);
            if (!key.empty())
                keys.push_back(key);
            if (holder != "scoped_lock")
                break;
        }
        return keys;
    };

    // ---- First pass: every acquisition, plus direct blocking. ----
    std::vector<std::set<std::string>> acquired(nodes.size());
    std::vector<Summary> summaries(nodes.size());

    static const std::regex kCvWait(
        R"((\.|->)\s*(wait|wait_for|wait_until)\s*\(([^;()]*(?:\([^()]*\))?[^;()]*)\))");
    static const std::regex kSleep(
        R"(\bsleep_for\s*\(|\bsleep_until\s*\()");
    static const std::regex kFutureJoin(
        R"(\b([A-Za-z_][A-Za-z0-9_]*)\s*(\.|->)\s*(get|wait)\s*\(\s*\))");
    static const std::regex kVarLock(
        R"(\b([A-Za-z_][A-Za-z0-9_]*)\s*(\.|->)\s*(lock|unlock)\s*\(\s*\))");

    auto forEachBodyLine = [](const CallNode &node, auto &&fn) {
        const auto &lines = node.file->codeLines;
        for (int li = node.def.bodyBeginLine;
             li <= node.def.bodyEndLine &&
             li <= static_cast<int>(lines.size());
             ++li)
            fn(li, lines[static_cast<std::size_t>(li - 1)]);
    };

    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        const CallNode &node = nodes[ni];
        if (node.exempt)
            continue;
        Summary &summary = summaries[ni];
        forEachBodyLine(node, [&](int li, const std::string &line) {
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                lockDeclRe());
                 it != std::sregex_iterator(); ++it) {
                const std::smatch match = *it;
                for (const std::string &key : lockKeys(match, groups[ni])) {
                    ++report->lockSites;
                    acquired[ni].insert(key);
                    summary.acquires.emplace(
                        key, std::vector<std::string>{step(node, li)});
                }
            }
            std::string what;
            if (std::regex_search(line, kSleep))
                what = "sleeps";
            else if (std::regex_search(line, blockingIoPattern()))
                what = "performs blocking I/O";
            else if (std::regex_search(line, kCvWait))
                what = "waits on a condition variable";
            if (!what.empty() && summary.blocksPath.empty()) {
                summary.blocksPath = {step(node, li)};
                summary.blocksKind = what;
            }
        });
    }

    // ---- Summaries: transitive acquires + may-block, to fixpoint. ----
    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
            const CallNode &node = nodes[ni];
            Summary &summary = summaries[ni];
            for (const auto &[callee, call_line] : node.callees) {
                const Summary &target = summaries[callee];
                for (const auto &[key, path] : target.acquires) {
                    if (summary.acquires.count(key) != 0)
                        continue;
                    std::vector<std::string> chain{step(node, call_line)};
                    chain.insert(chain.end(), path.begin(), path.end());
                    summary.acquires.emplace(key, std::move(chain));
                    changed = true;
                }
                if (summary.blocksPath.empty() &&
                    !target.blocksPath.empty()) {
                    summary.blocksPath = {step(node, call_line)};
                    summary.blocksPath.insert(summary.blocksPath.end(),
                                              target.blocksPath.begin(),
                                              target.blocksPath.end());
                    summary.blocksKind = target.blocksKind;
                    changed = true;
                }
            }
        }
    }

    // ---- Second pass: held-lock scopes, edges, blocking reports. ----
    std::map<std::pair<std::string, std::string>, std::vector<std::string>>
        edges;
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        const CallNode &node = nodes[ni];
        if (node.exempt)
            continue;
        const SourceFile &sf = *node.file;
        const bool exempt_file = moduleOf(sf.path) == "runtime";

        std::vector<Held> held;
        /** unique_lock variable name -> (mutex key, decl depth). */
        std::map<std::string, std::pair<std::string, int>> lockVars;
        int depth = 0;

        // Edges only against locks held BEFORE an acquisition site: the
        // members of one scoped_lock are admitted as a group.
        auto acquire = [&](const std::vector<std::string> &keys, int li,
                           int at_depth, bool allowed) {
            const std::size_t held_before = held.size();
            for (const std::string &key : keys) {
                for (std::size_t h = 0; h < held_before && !allowed; ++h) {
                    if (held[h].key != key)
                        edges.emplace(std::make_pair(held[h].key, key),
                                      std::vector<std::string>{
                                          step(node, held[h].line),
                                          step(node, li)});
                }
                held.push_back({key, at_depth, li});
            }
        };

        auto report_block = [&](int li, const std::string &what,
                                const std::vector<std::string> &tail) {
            if (exempt_file || held.empty() || node.allowLines.count(li))
                return;
            const Held &h = held.back();
            std::vector<std::string> path{step(node, h.line)};
            path.insert(path.end(), tail.begin(), tail.end());
            report->findings.push_back(
                {"conc", "blocking-under-lock", sf.path, li,
                 node.def.display, std::move(path),
                 what + " while holding " + h.key + " (acquired line " +
                     std::to_string(h.line) + "): " +
                     trim(sf.rawLines[static_cast<std::size_t>(li - 1)])});
        };

        forEachBodyLine(node, [&](int li, const std::string &line) {
            const bool allowed = node.allowLines.count(li) != 0;

            // Brace depth at a column of this line (braces fold into
            // `depth` only once the whole line is processed).
            auto depthAt = [&](std::size_t pos) {
                int d = depth;
                for (std::size_t k = 0; k < pos && k < line.size(); ++k)
                    d += line[k] == '{' ? 1 : line[k] == '}' ? -1 : 0;
                return d;
            };

            // Scoped lock declarations (acquisitions).
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                lockDeclRe());
                 it != std::sregex_iterator(); ++it) {
                const std::smatch match = *it;
                const auto keys = lockKeys(match, groups[ni]);
                const int at_depth =
                    depthAt(static_cast<std::size_t>(match.position(0)));
                acquire(keys, li, at_depth, allowed);
                if (match[1].str() == "unique_lock" && keys.size() == 1)
                    lockVars[match[2].str()] = {keys.front(), at_depth};
            }

            // Manual lock()/unlock() on unique_lock vars or mutexes.
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                kVarLock);
                 it != std::sregex_iterator(); ++it) {
                const std::string recv = (*it)[1].str();
                std::string key = groups[ni] + "::" + recv;
                int at_depth =
                    depthAt(static_cast<std::size_t>(it->position(0)));
                const auto lv = lockVars.find(recv);
                if (lv != lockVars.end()) {
                    key = lv->second.first;
                    at_depth = lv->second.second;
                } else if (mutexKeys.count(key) == 0) {
                    continue;
                }
                if ((*it)[3].str() == "lock") {
                    acquire({key}, li, at_depth, allowed);
                    continue;
                }
                const auto last = std::find_if(
                    held.rbegin(), held.rend(),
                    [&key](const Held &h) { return h.key == key; });
                if (last != held.rend())
                    held.erase(std::next(last).base());
            }

            // Predicate-less condition-variable waits: a 1-argument
            // .wait(lk) / 2-argument .wait_for(lk, d) relies on the
            // caller re-checking against spurious wakeups; flag it
            // whether or not the lock resolved.
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                kCvWait);
                 it != std::sregex_iterator(); ++it) {
                const std::string fn = (*it)[2].str();
                const std::size_t argc = splitArgs((*it)[3].str()).size();
                const std::size_t cv_argc = fn == "wait" ? 1 : 2;
                if (argc != cv_argc || exempt_file ||
                    node.allowLines.count(li))
                    continue;
                report->findings.push_back(
                    {"conc", "blocking-under-lock", sf.path, li,
                     node.def.display, {step(node, li)},
                     "condition-variable " + fn +
                         " without a predicate: spurious wakeups make "
                         "the guarded state unreliable; pass the "
                         "predicate overload"});
            }

            // Direct blocking patterns under a held lock.
            if (std::regex_search(line, kSleep))
                report_block(li, "sleeps", {});
            if (std::regex_search(line, blockingIoPattern()))
                report_block(li, "performs blocking I/O", {});
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                kFutureJoin);
                 it != std::sregex_iterator(); ++it) {
                const std::string recv = (*it)[1].str();
                if (recv != "this" && lockVars.count(recv) == 0 &&
                    !isCallKeyword(recv))
                    report_block(li, "joins a future (." + (*it)[3].str() +
                                         "() on `" + recv + "`)",
                                 {});
            }

            // Calls while holding: edges + transitive blocking.
            static const std::regex kCall(R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                kCall);
                 !held.empty() && it != std::sregex_iterator(); ++it) {
                const std::string callee = (*it)[1].str();
                const auto found = graph.byName.find(callee);
                if (isCallKeyword(callee) || found == graph.byName.end())
                    continue;
                for (const std::size_t target : found->second) {
                    if (target == ni || nodes[target].exempt)
                        continue;
                    const Summary &sum = summaries[target];
                    for (const auto &[key, path] : sum.acquires) {
                        const bool already = std::any_of(
                            held.begin(), held.end(),
                            [&key](const Held &h) { return h.key == key; });
                        for (std::size_t h = 0;
                             h < held.size() && !allowed && !already; ++h) {
                            std::vector<std::string> witness{
                                step(node, held[h].line)};
                            witness.insert(witness.end(), path.begin(),
                                           path.end());
                            edges.emplace(std::make_pair(held[h].key, key),
                                          std::move(witness));
                        }
                    }
                    if (!sum.blocksPath.empty())
                        report_block(li,
                                     "calls " + nodes[target].def.display +
                                         ", which " + sum.blocksKind,
                                     sum.blocksPath);
                }
            }

            // Brace tracking: release locks whose scope closed.
            depth = depthAt(line.size());
            held.erase(std::remove_if(held.begin(), held.end(),
                                      [depth](const Held &h) {
                                          return h.depth > depth;
                                      }),
                       held.end());
            for (auto it = lockVars.begin(); it != lockVars.end();) {
                if (it->second.second > depth)
                    it = lockVars.erase(it);
                else
                    ++it;
            }
        });
    }

    // ---- Lock-order cycles: every edge inside a cyclic SCC. ----
    Digraph lock_graph;
    for (const auto &[edge, path] : edges) {
        lock_graph[edge.first].push_back(edge.second);
        lock_graph[edge.second];
        report->lockEdges.push_back({edge.first, edge.second, path});
    }
    std::map<std::string, std::string> cycle_of; // key -> member list
    for (const Cycle &cycle : findCycles(lock_graph)) {
        for (const auto &key : cycle.members)
            cycle_of[key] = join(cycle.members, ", ");
    }
    for (const LockEdge &edge : report->lockEdges) {
        const auto from = cycle_of.find(edge.from);
        const auto to = cycle_of.find(edge.to);
        if (from == cycle_of.end() || to == cycle_of.end() ||
            from->second != to->second)
            continue;
        // Anchor the report at the edge's first witness step.
        const std::string &first = edge.path.front();
        const std::size_t paren = first.rfind('(');
        const std::size_t colon = first.rfind(':');
        report->findings.push_back(
            {"conc", "lock-order-inversion",
             first.substr(paren + 1, colon - paren - 1),
             std::atoi(first.c_str() + colon + 1),
             trim(first.substr(0, paren)), edge.path,
             "acquires " + edge.to + " while holding " + edge.from +
                 "; mutexes {" + from->second +
                 "} form a lock-order cycle"});
    }

    // ---- Annotation coverage: unguarded access to guarded fields. ----
    static const std::regex kCapability(
        R"(\bERC_(REQUIRES|ACQUIRE|RELEASE|NO_THREAD_SAFETY_ANALYSIS)\b)");
    static const std::regex kIdent(R"([A-Za-z_][A-Za-z0-9_]*)");
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        const CallNode &node = nodes[ni];
        const auto fields = guarded.find(groups[ni]);
        const auto cls = classNames.find(groups[ni]);
        // Constructors/destructors: single-threaded by convention.
        if (node.exempt || fields == guarded.end() ||
            (cls != classNames.end() && cls->second.count(node.def.name)))
            continue;
        const auto &lines = node.file->codeLines;
        // Signature region: annotations between declarator and body.
        std::string sig;
        for (int li = node.def.line;
             li <= node.def.bodyBeginLine &&
             li <= static_cast<int>(lines.size());
             ++li)
            sig += lines[static_cast<std::size_t>(li - 1)] + "\n";
        if (std::regex_search(sig, kCapability))
            continue;
        bool flagged = false; // One report per function is enough.
        forEachBodyLine(node, [&](int li, const std::string &line) {
            if (flagged || node.allowLines.count(li))
                return;
            for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                                kIdent);
                 it != std::sregex_iterator(); ++it) {
                const std::string ident = (*it)[0].str();
                const auto field = fields->second.find(ident);
                if (field == fields->second.end() ||
                    acquired[ni].count(field->second))
                    continue;
                report->findings.push_back(
                    {"conc", "unguarded-access", node.file->path, li,
                     node.def.display, {},
                     "touches `" + ident + "` (guarded by " +
                         field->second +
                         ") without acquiring the mutex or carrying "
                         "ERC_REQUIRES/ERC_ACQUIRE on the definition"});
                flagged = true;
                return;
            }
        });
    }
}

} // namespace erec::analyze
