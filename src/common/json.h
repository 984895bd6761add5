// Minimal JSON reader for this repo's own observability artifacts
// (stats_json reports, Chrome trace-event files). No external dependency:
// a small recursive-descent parser covering the full RFC 8259 grammar is
// all tqec_report and the round-trip tests need.
//
// Numbers are stored as double (the reports never exceed 2^53) and object
// members keep insertion order. The reader also parses untrusted
// tqec_serve requests, so as_int refuses numbers it cannot convert
// exactly.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"

namespace tqec::json {

class Value {
 public:
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return type == Type::Null; }
  bool is_bool() const { return type == Type::Bool; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }
  bool is_array() const { return type == Type::Array; }
  bool is_object() const { return type == Type::Object; }

  /// Member lookup (first match); nullptr when absent or not an object.
  const Value* find(const std::string& key) const {
    if (type != Type::Object) return nullptr;
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
  /// Member access; throws TqecError when absent.
  const Value& at(const std::string& key) const {
    const Value* v = find(key);
    if (v == nullptr) throw TqecError("json: missing member '" + key + "'");
    return *v;
  }

  // Typed accessors; throw TqecError on a type mismatch. The message is
  // all the error carries: it reaches tqec_serve clients verbatim.
  bool as_bool() const {
    check(is_bool(), "json: not a bool");
    return boolean;
  }
  double as_double() const {
    check(is_number(), "json: not a number");
    return number;
  }
  /// Throws unless the number is integral and representable as int64 (a
  /// cast of anything else is lossy or undefined behaviour). 2^63 is a
  /// double, so the half-open bound is exact.
  std::int64_t as_int() const {
    check(is_number(), "json: not a number");
    check(number >= -0x1p63 && number < 0x1p63, "json: integer out of range");
    check(std::trunc(number) == number, "json: not an integer");
    return static_cast<std::int64_t>(number);
  }
  const std::string& as_string() const {
    check(is_string(), "json: not a string");
    return string;
  }

 private:
  static void check(bool ok, const char* message) {
    if (!ok) throw TqecError(message);
  }
};

/// Parse one JSON document; trailing non-whitespace or malformed input
/// raises TqecError with the byte offset of the problem.
Value parse(const std::string& text);

/// Escape `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters; no surrounding quotes added).
std::string escape(std::string_view s);

}  // namespace tqec::json
