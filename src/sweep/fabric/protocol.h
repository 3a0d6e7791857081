// Fabric wire protocol: newline-delimited messages between the campaign
// coordinator and its worker processes.
//
// Framing is one message per '\n'-terminated line — a keyword header,
// space-separated scalar fields, and (for RESULT) a single-line JSON
// tail. obs::JsonValue::dump never emits raw newlines, so the framing is
// unambiguous without length prefixes or escaping.
//
//   coordinator -> worker:   LEASE <cell-index>
//                            ACK <cell-index>
//                            SHUTDOWN
//   worker -> coordinator:   HELLO <pid> <protocol-version>
//                            HEARTBEAT <cell-index> <elapsed-ms>
//                            RESULT <json>
//                            ERROR <cell-index> <message...>
//
// The RESULT json carries the cell index, the salted config key (decimal
// string: JSON numbers are doubles and would round 64 bits), wall time,
// the flight-recorder digest sidecar, and the full RunSummary via
// summary_to_json — whose round-trip is bit-exact (doubles dump
// shortest-exact, NaN as tagged strings), which is what keeps fabric
// digests identical to in-process ones.
//
// The campaign itself never crosses the wire: workers are forked after
// expansion and inherit the fully-resolved cell table, so a LEASE is
// just an index into it. The RESULT echoes the worker's independently
// computed config key, which the coordinator checks against its own —
// a cheap end-to-end integrity check on that inherited table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/summary.h"

namespace rootstress::sweep::fabric {

/// Bump when the message grammar changes; a coordinator refuses workers
/// that HELLO with a different version (can only happen if exec'd
/// binaries ever replace forked workers).
inline constexpr int kProtocolVersion = 1;

/// A worker heartbeats its in-flight cell this often; the coordinator
/// polls its channels at the same period.
inline constexpr double kHeartbeatMs = 250.0;

/// Once the queue is empty, an idle worker may duplicate ("steal") the
/// oldest lease that has been out this long with no result. First result
/// wins; duplicates are bit-identical by the determinism contract, so
/// stealing can only shorten the tail, never change it.
inline constexpr double kStealAfterMs = 2000.0;

enum class MessageKind : std::uint8_t {
  kHello,
  kLease,
  kAck,
  kShutdown,
  kHeartbeat,
  kResult,
  kError,
};

std::string to_string(MessageKind kind);

/// One completed cell as it crosses the wire.
struct WireResult {
  std::size_t index = 0;
  std::uint64_t key = 0;  ///< worker-computed salted config hash
  double wall_ms = 0.0;
  bool cache_hit = false;  ///< served from the shared RunCache, not run
  std::uint64_t timeline_digest = 0;
  std::size_t timeline_series = 0;
  std::size_t timeline_spans = 0;
  RunSummary summary;
};

/// A parsed message; only the fields for `kind` are meaningful.
struct Message {
  MessageKind kind = MessageKind::kShutdown;
  int pid = 0;               ///< kHello
  int version = 0;           ///< kHello
  std::size_t index = 0;     ///< kLease / kAck / kHeartbeat / kError
  double elapsed_ms = 0.0;   ///< kHeartbeat
  std::string error;         ///< kError
  WireResult result;         ///< kResult
};

/// `version` is this build's unless a test speaks for another peer.
std::string encode_hello(int pid, int version = kProtocolVersion);
std::string encode_lease(std::size_t index);
std::string encode_ack(std::size_t index);
std::string encode_shutdown();
std::string encode_heartbeat(std::size_t index, double elapsed_ms);
std::string encode_result(const WireResult& result);
std::string encode_error(std::size_t index, std::string_view what);

/// Parses one line (without its trailing '\n'); nullopt on anything
/// malformed, including an embedded '\n' or a HELLO field past INT_MAX —
/// the peer skips garbage rather than dying on it.
std::optional<Message> parse_message(std::string_view line);

/// Buffered line framing over one socket fd. Reads accumulate into an
/// internal buffer and complete lines split out; writes append '\n' and
/// send with MSG_NOSIGNAL so a dead peer surfaces as an error, not
/// SIGPIPE. Not thread-safe; callers serialize (the worker wraps sends
/// in a mutex shared with its heartbeat thread).
class LineChannel {
 public:
  LineChannel() = default;
  explicit LineChannel(int fd) : fd_(fd) {}

  int fd() const noexcept { return fd_; }
  bool alive() const noexcept { return alive_; }
  void close_fd();

  /// Drains whatever the fd has ready into `lines` (complete lines only;
  /// a partial tail stays buffered). On a blocking fd this waits for at
  /// least one byte. Returns false once the peer is gone (EOF or a hard
  /// error); EAGAIN on a nonblocking fd is not fatal and returns true
  /// with no lines.
  bool read_lines(std::vector<std::string>& lines);

  /// Sends `line` plus '\n'; false (and marks the channel dead) when the
  /// peer is gone.
  bool send_line(std::string_view line);

 private:
  int fd_ = -1;
  bool alive_ = true;
  std::string buffer_;
};

}  // namespace rootstress::sweep::fabric
