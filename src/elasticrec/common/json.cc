#include "elasticrec/common/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "elasticrec/common/error.h"

namespace erec {

namespace {

/** Recursive-descent RFC 8259 parser over one document. Tracks the
 *  byte offset for error messages. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after the JSON value");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const
    {
        fatal("JSON parse error at byte " + std::to_string(pos_) + ": " +
              what);
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 text_[pos_] + "'");
        ++pos_;
    }

    void keyword(std::string_view kw)
    {
        if (text_.substr(pos_, kw.size()) != kw)
            fail("expected a value");
        pos_ += kw.size();
    }

    JsonValue parseValue()
    {
        JsonValue v;
        switch (peek()) {
          case '{':
          case '[':
            // Deeper input is an error, not a stack overflow.
            if (++depth_ > kMaxDepth)
                fail("nesting deeper than " + std::to_string(kMaxDepth));
            v = text_[pos_] == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
          case '"':
            v.kind = JsonValue::Kind::String;
            v.string = parseString();
            return v;
          case 't':
          case 'f':
            v.kind = JsonValue::Kind::Bool;
            v.boolean = text_[pos_] == 't';
            keyword(v.boolean ? "true" : "false");
            return v;
          case 'n':
            keyword("null");
            return v;
          default:
            return parseNumber();
        }
    }

    JsonValue parseObject()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            if (peek() != '"')
                fail("expected an object key string");
            std::string key = parseString();
            if (v.find(key) != nullptr)
                fail("duplicate key '" + key + "'");
            expect(':');
            v.object.emplace_back(std::move(key), parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parseArray()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    unsigned hex4()
    {
        unsigned code = 0;
        const char *from = text_.data() + pos_;
        if (pos_ + 4 > text_.size() ||
            std::from_chars(from, from + 4, code, 16).ptr != from + 4)
            fail("bad \\u escape");
        pos_ += 4;
        return code;
    }

    /** One `\u` escape (the `\u` consumed), a surrogate pair included,
     *  appended to `out` as UTF-8. */
    void unicodeEscape(std::string *out)
    {
        unsigned code = hex4();
        if (code >= 0xDC00 && code <= 0xDFFF)
            fail("unpaired low surrogate");
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (text_.substr(pos_, 2) != "\\u")
                fail("unpaired high surrogate");
            pos_ += 2;
            const unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF)
                fail("unpaired high surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        // A lead byte, then 6 payload bits per continuation byte.
        const int tail =
            code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
        static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
        out->push_back(
            static_cast<char>(kLead[tail] | (code >> (6 * tail))));
        for (int k = tail - 1; k >= 0; --k)
            out->push_back(
                static_cast<char>(0x80 | ((code >> (6 * k)) & 0x3F)));
    }

    std::string parseString()
    {
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in a string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            const std::size_t k = kEscapes.find(e);
            if (k != std::string_view::npos)
                out.push_back(kDecoded[k]);
            else if (e == 'u')
                unicodeEscape(&out);
            else
                fail(std::string("bad string escape '\\") + e + "'");
        }
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    JsonValue parseNumber()
    {
        const std::size_t start = pos_;
        auto digits = [this] {
            const std::size_t from = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
            return pos_ - from;
        };
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        const std::size_t int_start = pos_;
        const std::size_t int_digits = digits();
        if (int_digits == 0)
            fail("expected a value");
        if (int_digits > 1 && text_[int_start] == '0')
            fail("leading zero in a number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                fail("expected a digit after '.'");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                fail("expected a digit in the exponent");
        }
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.string = std::string(text_.substr(start, pos_ - start));
        const char *end = v.string.data() + v.string.size();
        const auto res = std::from_chars(v.string.data(), end, v.number);
        if (res.ec != std::errc() || res.ptr != end)
            fail("number '" + v.string + "' is out of double range");
        return v;
    }

    static constexpr int kMaxDepth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

const char *
kindName(JsonValue::Kind kind)
{
    static constexpr const char *kNames[] = {"null",     "a boolean",
                                             "a number", "a string",
                                             "an array", "an object"};
    return kNames[static_cast<int>(kind)];
}

void
requireKind(const JsonValue &v, JsonValue::Kind kind)
{
    if (v.kind != kind)
        fatal(std::string("expected ") + kindName(kind) + ", got " +
              kindName(v.kind));
}

/** The integer a Number literal spells, exactly. */
template <typename Int>
Int
exactInteger(const JsonValue &v)
{
    requireKind(v, JsonValue::Kind::Number);
    Int out = 0;
    const char *end = v.string.data() + v.string.size();
    const auto res = std::from_chars(v.string.data(), end, out);
    if (res.ec == std::errc::result_out_of_range)
        fatal("integer " + v.string + " is out of range");
    if (res.ec != std::errc() || res.ptr != end)
        fatal("expected an integer, got " + v.string);
    return out;
}

} // namespace

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

void
JsonValue::requireKeys(std::initializer_list<std::string_view> keys) const
{
    requireKind(*this, Kind::Object);
    for (const auto &member : object)
        if (std::find(keys.begin(), keys.end(), member.first) == keys.end())
            fatal("unknown key '" + member.first + "'");
    for (std::string_view key : keys)
        if (find(key) == nullptr)
            fatal("missing key '" + std::string(key) + "'");
}

const JsonValue &
JsonValue::at(std::string_view key) const
{
    requireKind(*this, Kind::Object);
    const JsonValue *v = find(key);
    if (v == nullptr)
        fatal("missing key '" + std::string(key) + "'");
    return *v;
}

const std::string &
JsonValue::asString() const
{
    requireKind(*this, Kind::String);
    return string;
}

double
JsonValue::asDouble() const
{
    requireKind(*this, Kind::Number);
    return number;
}

std::int64_t
JsonValue::asInt64() const
{
    return exactInteger<std::int64_t>(*this);
}

std::uint64_t
JsonValue::asUint64() const
{
    return exactInteger<std::uint64_t>(*this);
}

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).parseDocument();
}

void
forEachJsonLine(std::string_view text, std::string_view what,
                const std::function<void(const JsonValue &)> &fn)
{
    std::size_t line_no = 0;
    while (!text.empty()) {
        const std::size_t eol = text.find('\n');
        const std::string_view line = text.substr(0, eol);
        text.remove_prefix(eol == std::string_view::npos ? text.size()
                                                         : eol + 1);
        ++line_no;
        if (line.find_first_not_of(" \t\r") == std::string_view::npos)
            continue;
        try {
            const JsonValue record = parseJson(line);
            requireKind(record, JsonValue::Kind::Object);
            fn(record);
        } catch (const ConfigError &e) {
            std::string_view msg = e.what();
            constexpr std::string_view kPrefix = "ConfigError: ";
            if (msg.substr(0, kPrefix.size()) == kPrefix)
                msg.remove_prefix(kPrefix.size());
            fatal(std::string(what) + " line " + std::to_string(line_no) +
                  ": " + std::string(msg));
        }
    }
}

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace erec
