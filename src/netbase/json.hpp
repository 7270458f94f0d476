// netbase/json.hpp — the one JSON codec.
//
// A dependency-free reader for the JSON the project consumes (RIS-Live
// NDJSON lines, zsobs-v1 BENCH snapshots, the HTTP endpoints zstop
// polls) and the one string escaper every JSON writer uses.
//
// The reader is strict: RFC 8259 numbers and whitespace only, unknown
// escapes and trailing garbage rejected, \uXXXX decoded to UTF-8, and
// nesting capped at kJsonMaxDepth so a hostile line cannot exhaust the
// stack. On a duplicate object key the first occurrence wins.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zombiescope::netbase {

/// Deepest accepted nesting: the top-level value is depth 0.
inline constexpr int kJsonMaxDepth = 32;

/// A parsed JSON value. Numbers are doubles (the counters we read stay
/// well inside the 2^53 exact-integer range).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  /// Members in document order (duplicates kept; find() returns the first).
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  double number_or(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  std::string string_or(std::string fallback) const {
    return kind == Kind::kString ? str : std::move(fallback);
  }
};

/// Parses one complete document; nullopt on malformed input.
std::optional<JsonValue> parse_json(std::string_view text);

/// Appends `text` as the body of a JSON string literal (no quotes):
/// `"` and `\` backslash-escaped, \n and \t as such, every other byte
/// below 0x20 as \u00xx; all other bytes, UTF-8 included, pass through.
void append_json_escaped(std::string& out, std::string_view text);
std::string json_escape(std::string_view text);

}  // namespace zombiescope::netbase
