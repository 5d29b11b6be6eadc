#include "elasticrec/obs/perfetto.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string_view>

#include "elasticrec/common/error.h"
#include "elasticrec/common/json.h"

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
        oss << "{\"name\":\"" << jsonEscape(spanName(e.name))
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

constexpr std::string_view kHeader = "{\"traceEvents\":[";
constexpr std::string_view kFooter = "]}";

/** The checks on one event object; returns its timestamp. */
std::int64_t
checkEvent(const JsonValue &event, const std::string &where,
           std::int64_t prev_ts, std::vector<std::string> *errors)
{
    const JsonValue *name = event.find("name");
    const JsonValue *ph = event.find("ph");
    const JsonValue *ts = event.find("ts");
    const JsonValue *pid = event.find("pid");
    const JsonValue *tid = event.find("tid");
    if (name == nullptr || name->kind != JsonValue::Kind::String ||
        ph == nullptr || ph->kind != JsonValue::Kind::String ||
        ts == nullptr || pid == nullptr || tid == nullptr) {
        errors->push_back(where + ": missing required field "
                                  "(name/ph/ts/pid/tid)");
        return prev_ts;
    }
    const std::int64_t t = ts->asInt64();
    // Perfetto groups events into tracks by these two integers.
    (void)pid->asUint64();
    (void)tid->asUint64();
    if (t < prev_ts)
        errors->push_back(where + ": timestamp " + std::to_string(t) +
                          " goes backwards (previous " +
                          std::to_string(prev_ts) + ")");
    if (ph->string != "X") {
        errors->push_back(where + ": unsupported phase '" + ph->string +
                          "'");
        return t;
    }
    const JsonValue *dur = event.find("dur");
    if (dur == nullptr || dur->asInt64() < 0)
        errors->push_back(where + ": complete event needs dur >= 0");
    return t;
}

} // namespace

std::vector<std::string>
validatePerfettoJson(const std::string &text)
{
    std::vector<std::string> errors;
    const std::string envelope_error =
        "not an erec_trace/v3 perfetto file: expected a "
        "{\"traceEvents\":[ ... ]} envelope with one event per line";
    bool header = false;
    bool footer = false;
    bool comma_pending = false; // the previous event ended in ','
    std::size_t events = 0;
    std::int64_t prev_ts = -1;
    std::string_view rest = text;
    while (!rest.empty()) {
        const std::size_t eol = rest.find('\n');
        std::string_view line = rest.substr(0, eol);
        rest.remove_prefix(eol == std::string_view::npos ? rest.size()
                                                         : eol + 1);
        if (line.find_first_not_of(" \t\r") == std::string_view::npos)
            continue;
        if (!header) {
            if (line != kHeader) {
                errors.push_back(envelope_error);
                return errors;
            }
            header = true;
            continue;
        }
        if (footer) {
            errors.push_back("content after the closing ]}");
            return errors;
        }
        if (line == kFooter) {
            footer = true;
            if (comma_pending)
                errors.push_back("event " + std::to_string(events) +
                                 ": trailing ',' after the last event");
            continue;
        }
        const std::string where = "event " + std::to_string(++events);
        if (events > 1 && !comma_pending)
            errors.push_back(where + ": no ',' after the previous event");
        comma_pending = line.back() == ',';
        if (comma_pending)
            line.remove_suffix(1);
        try {
            const JsonValue event = parseJson(line);
            if (event.kind != JsonValue::Kind::Object)
                errors.push_back(where + ": not a JSON object");
            else
                prev_ts = checkEvent(event, where, prev_ts, &errors);
        } catch (const ConfigError &e) {
            errors.push_back(where + ": " + e.what());
        }
    }
    if (!footer)
        errors.push_back(envelope_error);
    return errors;
}

} // namespace erec::obs
