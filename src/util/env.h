// Numeric knobs share one parse rule: environment variables
// (ROOTSTRESS_THREADS, ROOTSTRESS_VPS, ROOTSTRESS_TRACE_CAP) and the
// examples' command-line numbers.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>

namespace rootstress::util {

/// `text` as an integer when the whole string is a decimal integer (an
/// optional leading '-', no '+', no spaces) within [min, max]; nullopt
/// otherwise ("", "3x", " 3", out of range, past int64).
inline std::optional<std::int64_t> parse_integer(std::string_view text,
                                                 std::int64_t min,
                                                 std::int64_t max) noexcept {
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;
  }
  if (value < min || value > max) return std::nullopt;
  return value;
}

/// `text` as a number when the whole string is a finite decimal or
/// exponent-form value (an optional leading '-', no '+', no spaces)
/// within [min, max]; nullopt otherwise ("", "5x", "nan", "inf", "1e400",
/// out of range).
inline std::optional<double> parse_number(std::string_view text, double min,
                                          double max) noexcept {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;
  }
  if (!std::isfinite(value) || value < min || value > max) return std::nullopt;
  return value;
}

/// parse_integer() of environment variable `name`; nullopt when it is
/// unset or does not parse, so the caller falls back to its default.
inline std::optional<std::int64_t> env_integer(const char* name,
                                               std::int64_t min,
                                               std::int64_t max) noexcept {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  return parse_integer(env, min, max);
}

}  // namespace rootstress::util
