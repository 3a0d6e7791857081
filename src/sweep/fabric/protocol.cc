#include "sweep/fabric/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>

#include "obs/json.h"

namespace rootstress::sweep::fabric {

namespace {

constexpr std::string_view kHelloTag = "HELLO";
constexpr std::string_view kLeaseTag = "LEASE";
constexpr std::string_view kAckTag = "ACK";
constexpr std::string_view kShutdownTag = "SHUTDOWN";
constexpr std::string_view kHeartbeatTag = "HEARTBEAT";
constexpr std::string_view kResultTag = "RESULT";
constexpr std::string_view kErrorTag = "ERROR";

/// Splits the leading space-delimited token off `rest`.
std::string_view next_token(std::string_view& rest) {
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  const std::size_t end = rest.find(' ');
  std::string_view token = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end);
  return token;
}

template <typename T>
bool parse_unsigned(std::string_view token, T* out) {
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool parse_double(std::string_view token, double* out) {
  if (token.empty()) return false;
  char buf[64];
  if (token.size() >= sizeof(buf)) return false;
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + token.size();
}

/// 64-bit value as a decimal JSON string (numbers are doubles and would
/// round past 2^53 — same convention as RunSummary::config_hash).
obs::JsonValue u64_string(std::uint64_t v) {
  return obs::JsonValue(std::to_string(v));
}

bool read_u64_string(const obs::JsonValue& doc, std::string_view key,
                     std::uint64_t* out) {
  const obs::JsonValue* field = doc.find(key);
  if (field == nullptr || field->kind() != obs::JsonValue::Kind::kString) {
    return false;
  }
  return parse_unsigned(field->as_string(), out);
}

}  // namespace

std::string to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kHello: return std::string(kHelloTag);
    case MessageKind::kLease: return std::string(kLeaseTag);
    case MessageKind::kAck: return std::string(kAckTag);
    case MessageKind::kShutdown: return std::string(kShutdownTag);
    case MessageKind::kHeartbeat: return std::string(kHeartbeatTag);
    case MessageKind::kResult: return std::string(kResultTag);
    case MessageKind::kError: return std::string(kErrorTag);
  }
  return "?";
}

std::string encode_hello(int pid, int version) {
  return std::string(kHelloTag) + " " + std::to_string(pid) + " " +
         std::to_string(version);
}

std::string encode_lease(std::size_t index) {
  return std::string(kLeaseTag) + " " + std::to_string(index);
}

std::string encode_ack(std::size_t index) {
  return std::string(kAckTag) + " " + std::to_string(index);
}

std::string encode_shutdown() { return std::string(kShutdownTag); }

std::string encode_heartbeat(std::size_t index, double elapsed_ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %zu %.3f", index, elapsed_ms);
  return std::string(kHeartbeatTag) + buf;
}

std::string encode_result(const WireResult& result) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("index", obs::JsonValue(static_cast<std::uint64_t>(result.index)));
  doc.set("key", u64_string(result.key));
  doc.set("wall_ms", obs::JsonValue(result.wall_ms));
  doc.set("cache_hit", obs::JsonValue(result.cache_hit));
  doc.set("timeline_digest", u64_string(result.timeline_digest));
  doc.set("timeline_series",
          obs::JsonValue(static_cast<std::uint64_t>(result.timeline_series)));
  doc.set("timeline_spans",
          obs::JsonValue(static_cast<std::uint64_t>(result.timeline_spans)));
  doc.set("summary", summary_to_json(result.summary));
  return std::string(kResultTag) + " " + doc.dump();
}

std::string encode_error(std::size_t index, std::string_view what) {
  std::string line = std::string(kErrorTag) + " " + std::to_string(index) + " ";
  // The payload must stay one line; fold any embedded newlines away.
  for (const char c : what) line.push_back(c == '\n' ? ' ' : c);
  return line;
}

std::optional<Message> parse_message(std::string_view line) {
  // The framing splits on '\n', so no real line holds one; the encoders
  // never write one either (encode_error folds them away).
  if (line.find('\n') != std::string_view::npos) return std::nullopt;
  std::string_view rest = line;
  const std::string_view tag = next_token(rest);
  Message msg;
  if (tag == kShutdownTag) {
    msg.kind = MessageKind::kShutdown;
    return msg;
  }
  if (tag == kHelloTag) {
    msg.kind = MessageKind::kHello;
    // Both fields are ints: a value past INT_MAX would wrap negative and
    // re-encode to a line no peer parses.
    unsigned pid = 0, version = 0;
    if (!parse_unsigned(next_token(rest), &pid) || pid > INT_MAX) {
      return std::nullopt;
    }
    if (!parse_unsigned(next_token(rest), &version) || version > INT_MAX) {
      return std::nullopt;
    }
    msg.pid = static_cast<int>(pid);
    msg.version = static_cast<int>(version);
    return msg;
  }
  if (tag == kLeaseTag || tag == kAckTag) {
    msg.kind = tag == kLeaseTag ? MessageKind::kLease : MessageKind::kAck;
    if (!parse_unsigned(next_token(rest), &msg.index)) return std::nullopt;
    return msg;
  }
  if (tag == kHeartbeatTag) {
    msg.kind = MessageKind::kHeartbeat;
    if (!parse_unsigned(next_token(rest), &msg.index)) return std::nullopt;
    if (!parse_double(next_token(rest), &msg.elapsed_ms)) return std::nullopt;
    return msg;
  }
  if (tag == kErrorTag) {
    msg.kind = MessageKind::kError;
    if (!parse_unsigned(next_token(rest), &msg.index)) return std::nullopt;
    if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    msg.error = std::string(rest);
    return msg;
  }
  if (tag == kResultTag) {
    msg.kind = MessageKind::kResult;
    if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    const auto doc = obs::json_parse(rest);
    if (!doc.has_value()) return std::nullopt;
    if (!obs::read_integer(*doc, "index", &msg.result.index)) {
      return std::nullopt;
    }
    if (!read_u64_string(*doc, "key", &msg.result.key)) return std::nullopt;
    const obs::JsonValue* wall = doc->find("wall_ms");
    if (wall == nullptr || wall->kind() != obs::JsonValue::Kind::kNumber) {
      return std::nullopt;
    }
    msg.result.wall_ms = wall->as_number();
    const obs::JsonValue* cache_hit = doc->find("cache_hit");
    msg.result.cache_hit =
        cache_hit != nullptr &&
        cache_hit->kind() == obs::JsonValue::Kind::kBool &&
        cache_hit->as_bool();
    if (!read_u64_string(*doc, "timeline_digest",
                         &msg.result.timeline_digest)) {
      return std::nullopt;
    }
    if (!obs::read_integer(*doc, "timeline_series",
                           &msg.result.timeline_series) ||
        !obs::read_integer(*doc, "timeline_spans",
                           &msg.result.timeline_spans)) {
      return std::nullopt;
    }
    const obs::JsonValue* summary = doc->find("summary");
    if (summary == nullptr) return std::nullopt;
    auto parsed = summary_from_json(*summary);
    if (!parsed.has_value()) return std::nullopt;
    msg.result.summary = std::move(*parsed);
    return msg;
  }
  return std::nullopt;
}

void LineChannel::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  alive_ = false;
}

bool LineChannel::read_lines(std::vector<std::string>& lines) {
  if (!alive_ || fd_ < 0) return false;
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      if (n == static_cast<ssize_t>(sizeof(chunk))) continue;  // more ready
      break;
    }
    if (n == 0) {  // EOF: peer gone; flush what we have, then report dead
      alive_ = false;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // nonblocking: fine
    alive_ = false;
    break;
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = buffer_.find('\n', start);
    if (nl == std::string::npos) break;
    lines.emplace_back(buffer_, start, nl - start);
    start = nl + 1;
  }
  buffer_.erase(0, start);
  return alive_;
}

bool LineChannel::send_line(std::string_view line) {
  if (!alive_ || fd_ < 0) return false;
  std::string framed(line);
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Nonblocking fd with a full socket buffer: wait for drain. The
      // peer reads promptly; a multi-second stall means it is gone.
      struct pollfd pfd{fd_, POLLOUT, 0};
      if (::poll(&pfd, 1, /*timeout-ms=*/5000) > 0) continue;
    }
    alive_ = false;  // EPIPE and friends: the peer is gone
    return false;
  }
  return true;
}

}  // namespace rootstress::sweep::fabric
