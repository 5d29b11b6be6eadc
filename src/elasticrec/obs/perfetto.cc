#include "elasticrec/obs/perfetto.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>

namespace erec::obs {

namespace {

/** One rendered event line plus its sort key. */
struct EventLine
{
    std::int64_t ts = 0;
    std::uint64_t tid = 0;
    std::uint64_t order = 0;
    std::string json;
};

void
emitLines(std::ostream &os, std::vector<EventLine> lines)
{
    std::stable_sort(lines.begin(), lines.end(),
                     [](const EventLine &a, const EventLine &b) {
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         return a.order < b.order;
                     });
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < lines.size(); ++i) {
        os << lines[i].json;
        if (i + 1 < lines.size())
            os << ',';
        os << '\n';
    }
    os << "]}\n";
}

std::string
escapeName(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

void
writePerfettoJson(std::ostream &os, const std::vector<SpanEvent> &events)
{
    std::vector<EventLine> lines;
    std::uint64_t order = 0;
    for (const SpanEvent &e : events) {
        EventLine line;
        line.ts = e.startUs;
        line.tid = e.traceId;
        line.order = order++;
        std::ostringstream oss;
        oss << "{\"name\":\"" << escapeName(spanName(e.name))
            << "\",\"ph\":\"X\",\"ts\":" << e.startUs
            << ",\"dur\":" << (e.endUs - e.startUs)
            << ",\"pid\":1,\"tid\":" << e.traceId
            << ",\"args\":{\"span_id\":" << e.spanId
            << ",\"parent_id\":" << e.parentId << ",\"arg\":" << e.arg
            << "}}";
        line.json = oss.str();
        lines.push_back(std::move(line));
    }
    emitLines(os, std::move(lines));
}

std::string
toPerfettoJson(const std::vector<SpanEvent> &events)
{
    std::ostringstream oss;
    writePerfettoJson(oss, events);
    return oss.str();
}

namespace {

/** Extract `"key":<integer>` from an event line; false when absent. */
bool
findIntField(const std::string &line, const std::string &key,
             std::int64_t *out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    std::size_t i = at + needle.size();
    bool neg = false;
    if (i < line.size() && line[i] == '-') {
        neg = true;
        ++i;
    }
    if (i >= line.size() || line[i] < '0' || line[i] > '9')
        return false;
    std::int64_t v = 0;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
        v = v * 10 + (line[i] - '0');
        ++i;
    }
    *out = neg ? -v : v;
    return true;
}

bool
findStrField(const std::string &line, const std::string &key,
             std::string *out)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    const std::size_t begin = at + needle.size();
    const std::size_t end = line.find('"', begin);
    if (end == std::string::npos)
        return false;
    *out = line.substr(begin, end - begin);
    return true;
}

} // namespace

std::vector<std::string>
validatePerfettoJson(const std::string &text)
{
    std::vector<std::string> errors;
    std::vector<std::string> lines;
    {
        std::istringstream iss(text);
        std::string line;
        while (std::getline(iss, line)) {
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            lines.push_back(line);
        }
    }
    if (lines.size() < 2 || lines.front() != "{\"traceEvents\":[" ||
        lines.back() != "]}") {
        errors.push_back(
            "not an erec_trace/v3 perfetto file: expected a "
            "{\"traceEvents\":[ ... ]} envelope with one event per "
            "line");
        return errors;
    }

    std::int64_t prev_ts = -1;
    for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
        const std::string &line = lines[i];
        const std::string where = "event " + std::to_string(i);
        std::string name;
        std::string ph;
        std::int64_t ts = 0;
        std::int64_t pid = 0;
        std::int64_t tid = 0;
        if (!findStrField(line, "name", &name) ||
            !findStrField(line, "ph", &ph) ||
            !findIntField(line, "ts", &ts) ||
            !findIntField(line, "pid", &pid) ||
            !findIntField(line, "tid", &tid)) {
            errors.push_back(where +
                             ": missing required field "
                             "(name/ph/ts/pid/tid)");
            continue;
        }
        if (ts < prev_ts)
            errors.push_back(where + ": timestamp " +
                             std::to_string(ts) +
                             " goes backwards (previous " +
                             std::to_string(prev_ts) + ")");
        prev_ts = ts;
        if (ph != "X") {
            errors.push_back(where + ": unsupported phase '" + ph +
                             "'");
            continue;
        }
        std::int64_t dur = 0;
        if (!findIntField(line, "dur", &dur) || dur < 0)
            errors.push_back(where + ": complete event needs dur >= 0");
    }
    return errors;
}

} // namespace erec::obs
