#include "obs/trace.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <ostream>

#include "obs/json.h"
#include "util/env.h"
#include "util/logging.h"

namespace rootstress::obs {

const char* to_string(TraceEventType type) noexcept {
  switch (type) {
    case TraceEventType::kSiteWithdraw: return "site-withdraw";
    case TraceEventType::kSiteRestore: return "site-restore";
    case TraceEventType::kBgpSessionFailure: return "bgp-session-failure";
    case TraceEventType::kBgpSessionRestore: return "bgp-session-restore";
    case TraceEventType::kCatchmentFlip: return "catchment-flip";
    case TraceEventType::kQueueOverloadOnset: return "queue-overload-onset";
    case TraceEventType::kQueueOverloadEnd: return "queue-overload-end";
    case TraceEventType::kDefenseActivation: return "defense-activation";
    case TraceEventType::kRrlSuppression: return "rrl-suppression";
    case TraceEventType::kPlaybookDetection: return "playbook-detection";
    case TraceEventType::kPlaybookAction: return "playbook-action";
    case TraceEventType::kWithdrawVeto: return "policy-withdraw-veto";
    case TraceEventType::kFaultInjection: return "fault-injection";
    case TraceEventType::kLog: return "log";
  }
  return "?";
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {}

TraceSink::~TraceSink() { detach_logger(); }

void TraceSink::emit(TraceEvent event) {
  event.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  std::lock_guard<std::mutex> lock(mutex_);
  ++emitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

TraceStats TraceSink::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TraceStats s;
  s.emitted = emitted_;
  s.dropped = dropped_;
  s.capacity = capacity_;
  s.buffered = ring_.size();
  return s;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Once wrapped, next_ points at the oldest event.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::string trace_event_json(const TraceEvent& event) {
  JsonValue line = JsonValue::object();
  line.set("type", to_string(event.type));
  line.set("t_ms", static_cast<std::int64_t>(event.sim_time.ms));
  line.set("t", event.sim_time.to_string());
  line.set("wall_us", event.wall_us);
  if (event.letter != 0) line.set("letter", std::string(1, event.letter));
  if (!event.site.empty()) line.set("site", event.site);
  if (!event.detail.empty()) line.set("detail", event.detail);
  if (event.value != 0.0) line.set("value", event.value);
  return line.dump();
}

void TraceSink::write_jsonl(std::ostream& os) const {
  for (const auto& event : events()) {
    os << trace_event_json(event) << '\n';
  }
}

bool TraceSink::flush_to_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out);
  return out.good();
}

void TraceSink::attach_logger() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    logger_attached_ = true;
  }
  util::set_log_sink([this](util::LogLevel level, const std::string& message) {
    TraceEvent event;
    event.type = TraceEventType::kLog;
    event.detail = message;
    event.value = static_cast<double>(level);
    emit(std::move(event));
  });
}

void TraceSink::detach_logger() {
  bool attached = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    attached = logger_attached_;
    logger_attached_ = false;
  }
  if (attached) util::set_log_sink(nullptr);
}

std::size_t TraceSink::capacity_from_env(std::size_t fallback) {
  const auto env = util::env_integer(
      "ROOTSTRESS_TRACE_CAP", 1, std::numeric_limits<std::int64_t>::max());
  return env ? static_cast<std::size_t>(*env) : fallback;
}

}  // namespace rootstress::obs
