// Minimal JSON support for the observability layer: a writer used by the
// trace / metrics / bench exporters and a small recursive-descent parser
// used by tests (schema round-trips) and by the document loaders behind
// bench_diff and trace_tool. Not a general-purpose library: numbers
// are doubles, \uXXXX escapes outside the BMP are not recombined, and the
// parser keeps the whole document in memory — all fine for machine-sized
// telemetry files.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace rips::obs::json {

/// Escapes `s` as the *contents* of a JSON string (no surrounding quotes).
std::string escape(std::string_view s);

/// `"s"` with escaping — the common writer helper.
std::string quoted(std::string_view s);

/// Parsed JSON value. Object member order is preserved so exporters can be
/// tested for stable field ordering.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// First member named `key`, or nullptr (objects only).
  const Value* find(std::string_view key) const;

  /// Number as i64 (truncating); 0 for non-numbers.
  i64 as_i64() const { return static_cast<i64>(number); }
};

/// Parses a complete JSON document. On failure returns nullopt and, when
/// `error` is given, a message with the byte offset of the problem.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

}  // namespace rips::obs::json
