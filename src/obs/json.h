// Minimal JSON value, writer, and parser for the telemetry subsystem.
//
// Telemetry leaves the process as JSON (trace JSON-lines, the telemetry
// snapshot written by core::write_telemetry, bench result files). This is
// a deliberately small, dependency-free implementation: enough to write
// every telemetry artifact and to parse them back in tests and tooling.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rootstress::obs {

/// One JSON value. Objects keep insertion order (telemetry files diff
/// cleanly across runs); numbers are doubles, as in JSON itself.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  JsonValue() = default;
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}
  JsonValue(std::int64_t n)
      : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  JsonValue(std::uint64_t n)
      : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  JsonValue(int n) : kind_(Kind::kNumber), number_(n) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }

  bool as_bool() const noexcept { return bool_; }
  double as_number() const noexcept { return number_; }
  const std::string& as_string() const noexcept { return string_; }

  /// Array access.
  void push_back(JsonValue v) { array_.push_back(std::move(v)); }
  std::size_t size() const noexcept { return array_.size(); }
  const JsonValue& operator[](std::size_t i) const { return array_[i]; }

  /// Object access. `set` replaces an existing key in place.
  void set(std::string key, JsonValue v);
  /// Member by key; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const noexcept;
  const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return object_;
  }

  /// Compact single-line serialization.
  std::string dump() const;
  void dump_to(std::string& out) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Appends `text` JSON-escaped (without surrounding quotes) to `out`.
void json_escape(std::string_view text, std::string& out);

/// Parses one JSON document; nullopt on any syntax error or trailing
/// garbage. Accepts the subset dump() produces plus standard whitespace
/// and escape sequences (\uXXXX escapes decode to UTF-8).
std::optional<JsonValue> json_parse(std::string_view text);

/// Reads member `key` of `doc` as a T: it must be a JSON number that is
/// integral and inside T's range. Anything else (absent, another kind,
/// fractional, out of range) returns false and leaves *out alone. Both
/// bounds are powers of two, so they and the final cast are exact.
template <typename T>
bool read_integer(const JsonValue& doc, std::string_view key, T* out) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr || v->kind() != JsonValue::Kind::kNumber) return false;
  const double d = v->as_number();
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(d >= lo && d < hi) || std::trunc(d) != d) return false;
  *out = static_cast<T>(d);
  return true;
}

}  // namespace rootstress::obs
