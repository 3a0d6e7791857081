// Integer environment knobs (ROOTSTRESS_THREADS, ROOTSTRESS_VPS,
// ROOTSTRESS_TRACE_CAP) share one parse rule.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>

namespace rootstress::util {

/// The value of environment variable `name` when the whole string is a
/// decimal integer within [min, max]; nullopt otherwise (unset, empty,
/// "3x", out of range), so the caller falls back to its default.
inline std::optional<std::int64_t> env_integer(const char* name,
                                               std::int64_t min,
                                               std::int64_t max) noexcept {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  const std::string_view text(env);
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;
  }
  if (value < min || value > max) return std::nullopt;
  return value;
}

}  // namespace rootstress::util
