#pragma once

/**
 * @file
 * The repo's one JSON codec: a strict parser and a string escaper.
 *
 * Readers parse what the exporters and bench harnesses write: a
 * JSON-lines file one line at a time (forEachJsonLine), so no reader
 * holds more than one record's tree, or a small bench document whole
 * (parseJson). The parser follows RFC 8259 and is strict wherever a
 * loose reader would misread silently:
 *  - duplicate object keys, raw control characters inside strings,
 *    unpaired surrogates, nesting deeper than 256 and trailing content
 *    are errors;
 *  - `\uXXXX` escapes, surrogate pairs included, decode to UTF-8;
 *  - a number keeps its literal text, so asInt64()/asUint64() read
 *    64-bit trace and span ids exactly rather than through a double.
 *
 * Writers stream their own fixed layouts and send every string through
 * jsonEscape; nothing builds a tree in order to write.
 */

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace erec {

/** One parsed JSON value (objects keep document order). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** Number: the value as a double (inexact beyond 2^53). */
    double number = 0.0;
    /** String: the decoded text. Number: the literal as written, which
     *  asInt64()/asUint64() read. */
    std::string string;
    std::vector<JsonValue> array;
    /** Object members in document order; keys are unique. */
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Object member lookup; null when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** Require an object whose keys are exactly `keys`, in any order.
     *  Raises ConfigError naming an unknown or a missing key. */
    void requireKeys(std::initializer_list<std::string_view> keys) const;

    /** Member `key`; ConfigError when absent. */
    const JsonValue &at(std::string_view key) const;

    /** Typed reads; each raises ConfigError on any other kind. The
     *  integer reads also reject a fraction, an exponent and any value
     *  out of the type's range. */
    const std::string &asString() const;
    double asDouble() const;
    std::int64_t asInt64() const;
    std::uint64_t asUint64() const;
};

/** Parse one JSON document. Raises ConfigError on malformed input,
 *  with a byte offset in the message. */
JsonValue parseJson(std::string_view text);

/**
 * Read JSON-lines text one line at a time: `fn` sees the parsed value
 * of every line that holds more than whitespace, which must be an
 * object. Any ConfigError, the parser's or `fn`'s, is raised again as
 * "`what` line N: ...".
 */
void forEachJsonLine(std::string_view text, std::string_view what,
                     const std::function<void(const JsonValue &)> &fn);

/**
 * Escape `text` for the inside of a JSON string literal (no quotes
 * added): `"`, `\`, `\n`, `\t` and `\r` get their short escapes, other
 * control characters `\u00xx`; every other byte passes through.
 */
std::string jsonEscape(std::string_view text);

} // namespace erec
