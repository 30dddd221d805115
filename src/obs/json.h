// Minimal JSON support for the observability layer: string escaping for the
// JSONL trace and a parser for the (small, canonical) subset of JSON the
// metrics snapshot uses — objects, arrays, strings, and integers.
//
// This is deliberately not a general JSON library: the snapshot format is
// produced by RenderSnapshot (metrics.h) with sorted keys and no floats, so
// a recursive-descent parser over that subset round-trips it exactly. That
// exactness is what lets the telemetry tests verify schema drift
// byte-for-byte.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tlsharm::obs {

// Escapes `raw` for inclusion inside a JSON string literal: backslash,
// double quote, and control characters (\n, \t, ... and \u00XX for the
// rest). Returns the escaped body WITHOUT surrounding quotes.
std::string JsonEscape(std::string_view raw);

// Appends "\"escaped\"" to `out`.
void AppendJsonString(std::string& out, std::string_view raw);

// A parsed JSON value from the snapshot subset. Numbers are restricted to
// 64-bit signed integers — every value the metrics layer emits (counts,
// virtual times) is integral, which keeps parsing and re-rendering exact.
struct JsonValue {
  enum class Kind : std::uint8_t { kInt, kString, kArray, kObject };
  Kind kind = Kind::kInt;

  std::int64_t integer = 0;
  std::string string;
  std::vector<JsonValue> array;
  // std::map: iteration in key order, matching the canonical rendering.
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

// Parses the snapshot JSON subset. Returns false (and leaves `out`
// unspecified) on any syntax error, float, bool, null, or duplicate key.
bool ParseJson(std::string_view text, JsonValue& out);

}  // namespace tlsharm::obs
