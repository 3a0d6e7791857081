// Minimal leveled logging.
//
// The simulator is quiet by default; set ROOTSTRESS_LOG=debug|info|warn|
// error to trace scenario progress (site withdrawals, BGP session
// failures, ...), or ROOTSTRESS_LOG=off to state the default explicitly.
//
// Lines are formatted fully before emission and written to stderr with a
// single locked write, so concurrent threads never interleave. When a
// telemetry trace sink is attached (obs::TraceSink::attach_logger), every
// emitted line is also recorded as a structured "log" trace event. The
// RS_LOG_* macros test the level first: a line below it formats nothing.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace rootstress::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Current threshold; messages below it are dropped.
LogLevel log_level() noexcept;

/// Overrides the threshold (initially taken from ROOTSTRESS_LOG).
void set_log_level(LogLevel level) noexcept;

/// True when a line at `level` passes the threshold.
inline bool log_enabled(LogLevel level) noexcept {
  return static_cast<int>(level) >= static_cast<int>(log_level());
}

/// Emits one line (atomically, to stderr and any attached sink) if
/// `level` passes the threshold.
void log_line(LogLevel level, const std::string& message);

/// Secondary destination for emitted lines (besides stderr). Used by the
/// telemetry layer to capture logs as trace events; pass nullptr to
/// detach. Replaces any previously attached sink.
using LogSink = std::function<void(LogLevel, const std::string&)>;
void set_log_sink(LogSink sink);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

// `RS_LOG_WARN << a << b;` evaluates and formats a and b only when the
// line passes the level. The empty if-branch keeps a caller's trailing
// `else` bound to the caller's own `if`.
#define RS_LOG_AT(level)                              \
  if (!::rootstress::util::log_enabled(level)) {      \
  } else                                              \
    ::rootstress::util::detail::LogStream(level)
#define RS_LOG_DEBUG RS_LOG_AT(::rootstress::util::LogLevel::kDebug)
#define RS_LOG_INFO RS_LOG_AT(::rootstress::util::LogLevel::kInfo)
#define RS_LOG_WARN RS_LOG_AT(::rootstress::util::LogLevel::kWarn)
#define RS_LOG_ERROR RS_LOG_AT(::rootstress::util::LogLevel::kError)

}  // namespace rootstress::util
