// Tests for netbase/json — the one JSON codec: strict parsing, the
// nesting cap, and the escaper every JSON writer shares.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "netbase/json.hpp"
#include "netbase/rng.hpp"

namespace zombiescope::netbase {
namespace {

TEST(Json, ParsesScalarsArraysObjects) {
  const auto v = parse_json(
      R"({"a": 1.5, "b": [true, false, null], "c": {"d": "x\n\"y\""}, "e": -2e3})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->kind, JsonValue::Kind::kObject);
  EXPECT_DOUBLE_EQ(v->find("a")->number, 1.5);
  ASSERT_EQ(v->find("b")->array.size(), 3u);
  EXPECT_TRUE(v->find("b")->array[0].boolean);
  EXPECT_EQ(v->find("c")->find("d")->str, "x\n\"y\"");
  EXPECT_DOUBLE_EQ(v->find("e")->number, -2000.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("{\"a\": }").has_value());
  EXPECT_FALSE(parse_json("[1, 2,]").has_value());
  EXPECT_FALSE(parse_json("{} trailing").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
}

TEST(Json, DeepNestingIsRejected) {
  EXPECT_FALSE(parse_json(std::string(100000, '[')).has_value());
  // The top-level value is depth 0: depth kJsonMaxDepth parses, one
  // more level does not.
  const auto nested = [](int depth) {
    return std::string(depth + 1, '[') + std::string(depth + 1, ']');
  };
  EXPECT_TRUE(parse_json(nested(kJsonMaxDepth)).has_value());
  EXPECT_FALSE(parse_json(nested(kJsonMaxDepth + 1)).has_value());
}

TEST(Json, RejectsNonRfcNumbersAndEscapes) {
  for (const char* bad : {"+1", "01", "1.", ".5", "1e", "-", "1e999", "0x10",
                          "nan", "\"\\x\"", "\"\\u12g4\"", "\"\\u12\""}) {
    EXPECT_FALSE(parse_json(bad).has_value()) << bad;
  }
  for (const char* good : {"0", "-0", "10", "1.25", "1e3", "1E+3", "2.5e-3"}) {
    EXPECT_TRUE(parse_json(good).has_value()) << good;
  }
}

TEST(Json, DecodesUnicodeEscapesToUtf8) {
  const auto v = parse_json(R"("A\u00e9\u20ac\/")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->str, "A\xc3\xa9\xe2\x82\xac/");
}

TEST(Json, FirstDuplicateKeyWins) {
  const auto v = parse_json(R"({"k": 1, "k": 2})");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->find("k")->number, 1.0);
  EXPECT_EQ(v->find("missing"), nullptr);
  EXPECT_EQ(v->find("k")->find("k"), nullptr);  // not an object
}

TEST(Json, EscaperTable) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"plain", "plain"},
      {"\"", "\\\""},
      {"\\", "\\\\"},
      {"\n", "\\n"},
      {"\t", "\\t"},
      {"\r", "\\u000d"},
      {std::string(1, '\x01'), "\\u0001"},
      {std::string(1, '\x1f'), "\\u001f"},
      {std::string(1, '\x7f'), std::string(1, '\x7f')},
      {"caf\xc3\xa9 \xe2\x82\xac", "caf\xc3\xa9 \xe2\x82\xac"},
      {std::string("a\0b", 3), "a\\u0000b"},
  };
  for (const auto& [in, want] : cases) {
    EXPECT_EQ(json_escape(in), want) << want;
    std::string appended = "x";
    append_json_escaped(appended, in);
    EXPECT_EQ(appended, "x" + want);
  }
}

TEST(Json, EscapeRoundTripsEveryByteAndRandomStrings) {
  const auto round_trip = [](const std::string& s) {
    const auto v = parse_json("\"" + json_escape(s) + "\"");
    return v.has_value() && v->kind == JsonValue::Kind::kString ? v->str
                                                                : "<parse failed>";
  };
  for (int b = 0; b < 256; ++b) {
    const std::string s(1, static_cast<char>(b));
    EXPECT_EQ(round_trip(s), s) << "byte " << b;
  }
  Rng rng(0x15c0dec);
  for (int i = 0; i < 1000; ++i) {
    std::string s(static_cast<std::size_t>(rng.uniform_int(0, 64)), '\0');
    for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
    ASSERT_EQ(round_trip(s), s) << "string " << i;
  }
}

}  // namespace
}  // namespace zombiescope::netbase
