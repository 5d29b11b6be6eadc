/**
 * @file
 * Tests for the JSON codec (common/json.h): document parsing, the
 * strictness rules, exact 64-bit integers, `\u` decoding, the
 * line-at-a-time reader and the escaper.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/common/json.h"

namespace erec {
namespace {

std::string
benchJson(double qps1, double qps2)
{
    return "{\n  \"bench\": \"serving_throughput\",\n"
           "  \"quick\": true,\n  \"sweep\": [\n"
           "    {\"threads\": 1, \"qps\": " +
           std::to_string(qps1) +
           ", \"p50_ms\": 1.5},\n"
           "    {\"threads\": 4, \"qps\": " +
           std::to_string(qps2) +
           ", \"p50_ms\": 2.0}\n  ],\n  \"scaling\": 2.0\n}\n";
}

TEST(JsonTest, ParsesBenchDocument)
{
    const auto doc = parseJson(benchJson(1000, 2500));
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    const auto *bench = doc.find("bench");
    ASSERT_NE(bench, nullptr);
    EXPECT_EQ(bench->string, "serving_throughput");
    EXPECT_TRUE(doc.find("quick")->boolean);
    const auto *sweep = doc.find("sweep");
    ASSERT_EQ(sweep->kind, JsonValue::Kind::Array);
    ASSERT_EQ(sweep->array.size(), 2u);
    EXPECT_DOUBLE_EQ(sweep->array[0].find("qps")->number, 1000.0);
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonTest, ParsesEscapesNegativesAndNulls)
{
    const auto doc = parseJson(
        R"({"s": "a\"b\nc", "neg": -2.5e2, "none": null, "empty": {}})");
    EXPECT_EQ(doc.find("s")->string, "a\"b\nc");
    EXPECT_DOUBLE_EQ(doc.find("neg")->number, -250.0);
    EXPECT_EQ(doc.find("none")->kind, JsonValue::Kind::Null);
    EXPECT_TRUE(doc.find("empty")->object.empty());
}

TEST(JsonTest, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{\"a\": 1} trailing"), ConfigError);
    EXPECT_THROW(parseJson("{\"a\" 1}"), ConfigError);
    EXPECT_THROW(parseJson("[1, 2"), ConfigError);
    EXPECT_THROW(parseJson("{\"s\": \"unterminated}"), ConfigError);
    EXPECT_THROW(parseJson(""), ConfigError);
    EXPECT_THROW(parseJson("nope"), ConfigError);
}

TEST(JsonTest, DeepNestingIsAnErrorNotAStackOverflow)
{
    EXPECT_EQ(parseJson(std::string(256, '[') + std::string(256, ']'))
                  .kind,
              JsonValue::Kind::Array);
    EXPECT_THROW(parseJson(std::string(100000, '[')), ConfigError);
}

TEST(JsonTest, IntegersAreExactAtTheRangeEnds)
{
    const auto doc = parseJson(
        R"({"max": 18446744073709551615, "min": -9223372036854775808,
            "big": 9007199254740993})");
    EXPECT_EQ(doc.at("max").asUint64(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(doc.at("min").asInt64(),
              std::numeric_limits<std::int64_t>::min());
    // 2^53 + 1 has no double; the literal still reads exactly.
    EXPECT_EQ(doc.at("big").asUint64(), 9007199254740993u);
    EXPECT_EQ(doc.at("big").asInt64(), 9007199254740993);

    EXPECT_THROW(doc.at("max").asInt64(), ConfigError);
    EXPECT_THROW(doc.at("min").asUint64(), ConfigError);
    EXPECT_THROW(parseJson("18446744073709551616").asUint64(),
                 ConfigError);
}

TEST(JsonTest, FractionReadAsIntegerIsRejected)
{
    EXPECT_THROW(parseJson("1.5").asInt64(), ConfigError);
    EXPECT_THROW(parseJson("2.0").asUint64(), ConfigError);
    EXPECT_THROW(parseJson("1e3").asInt64(), ConfigError);
    EXPECT_THROW(parseJson("\"7\"").asInt64(), ConfigError);
    EXPECT_DOUBLE_EQ(parseJson("1.5").asDouble(), 1.5);
}

TEST(JsonTest, DuplicateKeyIsRejected)
{
    EXPECT_THROW(parseJson(R"({"a": 1, "a": 2})"), ConfigError);
    EXPECT_THROW(parseJson(R"([{"x": {"k": 1, "k": 1}}])"), ConfigError);
}

TEST(JsonTest, RawControlCharacterIsRejected)
{
    EXPECT_THROW(parseJson("\"tab\there\""), ConfigError);
    EXPECT_THROW(parseJson("\"line\nbreak\""), ConfigError);
    EXPECT_EQ(parseJson(R"("tab\there")").string, "tab\there");
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8)
{
    EXPECT_EQ(parseJson(R"("caf\u00e9")").string, "caf\xc3\xa9");
    EXPECT_EQ(parseJson(R"("\u20AC")").string, "\xe2\x82\xac");
    EXPECT_EQ(parseJson(R"("\ud83d\ude00")").string,
              "\xf0\x9f\x98\x80");
    EXPECT_EQ(parseJson(R"("A\u0000")").string,
              std::string("A\0", 2));
    EXPECT_THROW(parseJson(R"("\ud83d")"), ConfigError);
    EXPECT_THROW(parseJson(R"("\ude00")"), ConfigError);
    EXPECT_THROW(parseJson(R"("\ud83dA")"), ConfigError);
    EXPECT_THROW(parseJson(R"("\u12g4")"), ConfigError);
}

TEST(JsonTest, RejectsNonStandardNumbers)
{
    EXPECT_THROW(parseJson("+1"), ConfigError);
    EXPECT_THROW(parseJson("01"), ConfigError);
    EXPECT_THROW(parseJson("1."), ConfigError);
    EXPECT_THROW(parseJson(".5"), ConfigError);
    EXPECT_THROW(parseJson("nan"), ConfigError);
    EXPECT_THROW(parseJson("1e999"), ConfigError);
}

TEST(JsonTest, RequireKeysNamesUnknownAndMissingKeys)
{
    const auto rec = parseJson(R"({"a": 1, "b": "x"})");
    EXPECT_NO_THROW(rec.requireKeys({"b", "a"}));
    EXPECT_THROW(rec.requireKeys({"a"}), ConfigError);
    EXPECT_THROW(rec.requireKeys({"a", "b", "c"}), ConfigError);
    EXPECT_THROW(rec.at("c"), ConfigError);
    EXPECT_THROW(rec.at("a").asString(), ConfigError);
    EXPECT_EQ(rec.at("b").asString(), "x");
}

TEST(JsonTest, ForEachJsonLineSkipsBlankLinesAndNamesTheBadLine)
{
    std::vector<std::int64_t> seen;
    forEachJsonLine("{\"v\":1}\n\n  \r\n{\"v\":2}", "test",
                    [&](const JsonValue &rec) {
                        seen.push_back(rec.at("v").asInt64());
                    });
    EXPECT_EQ(seen, (std::vector<std::int64_t>{1, 2}));

    try {
        forEachJsonLine("{\"v\":1}\n{\"v\":2\n", "test",
                        [](const JsonValue &) {});
        FAIL() << "an unterminated object must throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("test line 2: JSON parse"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(forEachJsonLine("[1]\n", "test", [](const JsonValue &) {}),
                 ConfigError);
}

TEST(JsonTest, EscapeRoundTripsThroughTheParser)
{
    const std::string raw = std::string("q\"b\\s/\n\t\r\x01\x1f end");
    const std::string escaped = jsonEscape(raw);
    EXPECT_EQ(escaped, "q\\\"b\\\\s/\\n\\t\\r\\u0001\\u001f end");
    EXPECT_EQ(parseJson("\"" + escaped + "\"").string, raw);
}

} // namespace
} // namespace erec
