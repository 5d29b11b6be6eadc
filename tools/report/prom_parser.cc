#include "tools/report/prom_parser.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace erec::tools {

namespace {

bool
validMetricName(const std::string &s)
{
    if (s.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(s[0]))
        return false;
    return std::all_of(s.begin() + 1, s.end(), [&](char c) {
        return head(c) || (c >= '0' && c <= '9');
    });
}

bool
validLabelName(const std::string &s)
{
    if (s.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_';
    };
    if (!head(s[0]))
        return false;
    return std::all_of(s.begin() + 1, s.end(), [&](char c) {
        return head(c) || (c >= '0' && c <= '9');
    });
}

bool
parseValue(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    const char *begin = s.c_str();
    char *end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end != begin + s.size())
        return false;
    *out = v;
    return true;
}

/** Per-document validation state. */
struct Checker
{
    const std::string &text;
    PromParseResult result;
    std::size_t lineNo = 0;

    explicit Checker(const std::string &t) : text(t) {}

    void fail(const std::string &message)
    {
        std::ostringstream oss;
        oss << "line " << lineNo << ": " << message;
        result.errors.push_back(oss.str());
    }

    /** Family a sample belongs to: histogram suffixes collapse onto
     *  their declared base family. */
    std::string familyOf(const std::string &sample_name) const
    {
        for (const char *suffix : {"_bucket", "_sum", "_count"}) {
            const std::string sfx = suffix;
            if (sample_name.size() > sfx.size() &&
                sample_name.compare(sample_name.size() - sfx.size(),
                                    sfx.size(), sfx) == 0) {
                const std::string base = sample_name.substr(
                    0, sample_name.size() - sfx.size());
                auto it = result.types.find(base);
                if (it != result.types.end() &&
                    it->second == "histogram")
                    return base;
            }
        }
        return sample_name;
    }

    void parseComment(const std::string &line,
                      std::map<std::string, bool> *family_has_samples)
    {
        // "# HELP <name> <text>" / "# TYPE <name> <kind>"; any other
        // comment is legal and ignored.
        std::istringstream iss(line);
        std::string hash, keyword, name;
        iss >> hash >> keyword >> name;
        if (keyword != "HELP" && keyword != "TYPE")
            return;
        if (!validMetricName(name)) {
            fail("bad metric name in " + keyword + " comment: '" +
                 name + "'");
            return;
        }
        std::string rest;
        std::getline(iss, rest);
        if (!rest.empty() && rest[0] == ' ')
            rest.erase(0, 1);
        if (keyword == "HELP") {
            if (result.help.count(name))
                fail("duplicate HELP for family '" + name + "'");
            result.help[name] = rest;
            return;
        }
        static const char *kKinds[] = {"counter", "gauge", "histogram",
                                       "summary", "untyped"};
        if (std::find(std::begin(kKinds), std::end(kKinds), rest) ==
            std::end(kKinds)) {
            fail("unknown TYPE '" + rest + "' for family '" + name +
                 "'");
            return;
        }
        if (result.types.count(name))
            fail("duplicate TYPE for family '" + name + "'");
        if ((*family_has_samples)[name])
            fail("TYPE for '" + name + "' after its first sample");
        result.types[name] = rest;
    }

    void parseSample(const std::string &line,
                     std::map<std::string, bool> *family_has_samples)
    {
        PromSample sample;
        sample.line = lineNo;
        std::size_t i = 0;
        while (i < line.size() && line[i] != '{' && line[i] != ' ')
            ++i;
        sample.name = line.substr(0, i);
        if (!validMetricName(sample.name)) {
            fail("bad metric name '" + sample.name + "'");
            return;
        }
        if (i < line.size() && line[i] == '{') {
            ++i;
            if (!parseLabels(line, &i, &sample))
                return;
        }
        while (i < line.size() && line[i] == ' ')
            ++i;
        const std::string value_text = line.substr(i);
        if (value_text.find(' ') != std::string::npos) {
            // A second field would be a timestamp; the obs exporter
            // never writes one, so reject it as unexpected.
            fail("unexpected trailing field after value: '" +
                 value_text + "'");
            return;
        }
        if (!parseValue(value_text, &sample.value)) {
            fail("unparsable sample value '" + value_text + "'");
            return;
        }
        (*family_has_samples)[familyOf(sample.name)] = true;
        result.samples.push_back(std::move(sample));
    }

    bool parseLabels(const std::string &line, std::size_t *pos,
                     PromSample *sample)
    {
        std::size_t i = *pos;
        while (true) {
            if (i >= line.size()) {
                fail("unterminated label set");
                return false;
            }
            if (line[i] == '}') {
                ++i;
                break;
            }
            std::size_t eq = line.find('=', i);
            if (eq == std::string::npos) {
                fail("label without '='");
                return false;
            }
            const std::string lname = line.substr(i, eq - i);
            if (!validLabelName(lname)) {
                fail("bad label name '" + lname + "'");
                return false;
            }
            i = eq + 1;
            if (i >= line.size() || line[i] != '"') {
                fail("label value for '" + lname + "' not quoted");
                return false;
            }
            ++i;
            std::string value;
            bool closed = false;
            while (i < line.size()) {
                const char c = line[i];
                if (c == '\\') {
                    if (i + 1 >= line.size()) {
                        fail("dangling backslash in label value");
                        return false;
                    }
                    const char esc = line[i + 1];
                    if (esc == '\\')
                        value += '\\';
                    else if (esc == '"')
                        value += '"';
                    else if (esc == 'n')
                        value += '\n';
                    else {
                        fail(std::string("bad escape '\\") + esc +
                             "' in label value");
                        return false;
                    }
                    i += 2;
                    continue;
                }
                if (c == '"') {
                    closed = true;
                    ++i;
                    break;
                }
                value += c;
                ++i;
            }
            if (!closed) {
                fail("unterminated label value for '" + lname + "'");
                return false;
            }
            if (sample->labels.count(lname)) {
                fail("duplicate label '" + lname + "'");
                return false;
            }
            sample->labels[lname] = value;
            if (i < line.size() && line[i] == ',')
                ++i;
            else if (i >= line.size() || line[i] != '}') {
                fail("expected ',' or '}' after label value");
                return false;
            }
        }
        *pos = i;
        return true;
    }

    /** Histogram families: bucket ordering, cumulativity, +Inf,
     *  _count/_sum presence. Runs after the whole document parsed. */
    void checkHistograms()
    {
        for (const auto &[family, kind] : result.types) {
            if (kind != "histogram")
                continue;
            // Group bucket samples by label set minus 'le'.
            std::map<std::string,
                     std::vector<std::pair<double, double>>>
                groups; // key -> (le, cumulative count)
            std::map<std::string, double> counts, sums;
            std::map<std::string, bool> has_count, has_sum;
            for (const auto &s : result.samples) {
                std::string key;
                auto key_of = [&](bool drop_le) {
                    std::ostringstream oss;
                    for (const auto &[k, v] : s.labels) {
                        if (drop_le && k == "le")
                            continue;
                        oss << k << "=" << v << ";";
                    }
                    return oss.str();
                };
                if (s.name == family + "_bucket") {
                    auto le = s.labels.find("le");
                    if (le == s.labels.end()) {
                        lineNo = s.line;
                        fail("bucket of '" + family +
                             "' missing 'le' label");
                        continue;
                    }
                    double bound = 0;
                    if (le->second == "+Inf")
                        bound = std::numeric_limits<double>::infinity();
                    else if (!parseValue(le->second, &bound)) {
                        lineNo = s.line;
                        fail("unparsable le='" + le->second + "'");
                        continue;
                    }
                    groups[key_of(true)].emplace_back(bound, s.value);
                } else if (s.name == family + "_count") {
                    key = key_of(false);
                    has_count[key] = true;
                    counts[key] = s.value;
                } else if (s.name == family + "_sum") {
                    key = key_of(false);
                    has_sum[key] = true;
                    sums[key] = s.value;
                }
            }
            lineNo = 0;
            for (auto &[key, buckets] : groups) {
                const std::string where =
                    "histogram '" + family + "'{" + key + "}";
                for (std::size_t i = 1; i < buckets.size(); ++i) {
                    if (buckets[i - 1].first >= buckets[i].first)
                        fail(where + ": le bounds not ascending");
                    if (buckets[i - 1].second >
                        buckets[i].second + 1e-9)
                        fail(where + ": bucket counts not cumulative");
                }
                if (buckets.empty() ||
                    !std::isinf(buckets.back().first)) {
                    fail(where + ": missing le=\"+Inf\" bucket");
                    continue;
                }
                if (!has_count[key])
                    fail(where + ": missing _count series");
                else if (std::abs(counts[key] -
                                  buckets.back().second) > 1e-9)
                    fail(where + ": _count != +Inf bucket");
                if (!has_sum[key])
                    fail(where + ": missing _sum series");
                (void)sums;
            }
        }
    }
};

} // namespace

double
PromParseResult::value(const std::string &name,
                       const std::map<std::string, std::string> &labels,
                       double fallback) const
{
    for (const auto &s : samples) {
        if (s.name != name)
            continue;
        bool match = true;
        for (const auto &[k, v] : labels) {
            auto it = s.labels.find(k);
            if (it == s.labels.end() || it->second != v) {
                match = false;
                break;
            }
        }
        if (match)
            return s.value;
    }
    return fallback;
}

std::size_t
PromParseResult::count(const std::string &name) const
{
    return static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [&](const PromSample &s) {
                          return s.name == name;
                      }));
}

PromParseResult
parsePrometheusText(const std::string &text)
{
    Checker checker(text);
    std::map<std::string, bool> family_has_samples;
    std::istringstream iss(text);
    std::string line;
    while (std::getline(iss, line)) {
        ++checker.lineNo;
        if (line.empty())
            continue;
        if (line[0] == '#')
            checker.parseComment(line, &family_has_samples);
        else
            checker.parseSample(line, &family_has_samples);
    }
    checker.checkHistograms();
    // A TYPE'd family with zero samples is a header-only family: the
    // exporter kept a family alive after its last child was removed.
    checker.lineNo = 0;
    for (const auto &[family, kind] : checker.result.types) {
        if (!family_has_samples[family])
            checker.fail("family '" + family +
                         "' declares a TYPE but has no samples");
    }
    checker.result.ok = checker.result.errors.empty();
    return checker.result;
}

} // namespace erec::tools
