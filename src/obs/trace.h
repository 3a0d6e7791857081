// Structured run tracing: typed events with sim-time + wall-time stamps.
//
// Where metrics answer "how many", the trace answers "what happened,
// when": site withdrawals and restores, BGP session failures, catchment
// flips, queue-overflow onsets, defense activations — the same event
// vocabulary the paper reconstructs from RIPE Atlas / RSSAC / BGPmon
// after the fact, emitted live by the simulator instead.
//
// Events are ring-buffered (configurable cap; oldest dropped, drops
// counted) and flushed as JSON lines. Setting ROOTSTRESS_TRACE=path makes
// the engine flush the run's trace there on completion. Wall-clock
// stamps are write-only: nothing in the simulation reads them, so
// determinism is preserved.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "net/clock.h"

namespace rootstress::obs {

enum class TraceEventType : std::uint8_t {
  kSiteWithdraw,       ///< a site left the routing table (full or partial)
  kSiteRestore,        ///< a site came back
  kBgpSessionFailure,  ///< a site's BGP announcement was torn down
  kBgpSessionRestore,  ///< the announcement came back up
  kCatchmentFlip,      ///< ASes moved to a different site (value = count)
  kQueueOverloadOnset, ///< a site's ingress entered overload
  kQueueOverloadEnd,   ///< the overload episode ended
  kDefenseActivation,  ///< adaptive defense decided to act on a site
  kRrlSuppression,     ///< an RRL bucket started suppressing responses
  kPlaybookDetection,  ///< the playbook estimator confirmed a site attack
  kPlaybookAction,     ///< a playbook rule scheduled / applied an action
  kWithdrawVeto,       ///< a withdrawal was refused (last-global-site guard)
  kFaultInjection,     ///< a fault-schedule action was applied to the world
  kLog,                ///< a log line routed through the sink (keep last)
};

/// Stable wire name, e.g. "site-withdraw" (used in the JSON "type" field).
const char* to_string(TraceEventType type) noexcept;

/// One trace event. `wall_us` (microseconds since the sink was created)
/// is stamped by the sink at emit time.
struct TraceEvent {
  TraceEventType type = TraceEventType::kLog;
  net::SimTime sim_time{};
  std::int64_t wall_us = 0;
  char letter = 0;      ///< 'A'..'N', 0 = not letter-scoped
  std::string site;     ///< "K-AMS" style label, empty if not site-scoped
  std::string detail;   ///< free-form context
  double value = 0.0;   ///< event magnitude (flip count, overload ratio, ...)
};

/// Counters describing a sink's lifetime.
struct TraceStats {
  std::uint64_t emitted = 0;  ///< total events offered to the sink
  std::uint64_t dropped = 0;  ///< events evicted by the ring cap
  std::size_t capacity = 0;
  std::size_t buffered = 0;   ///< events currently held
};

/// Thread-safe ring-buffered event sink.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity);
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Records one event (stamping wall_us). Oldest events are evicted
  /// once the ring is full.
  void emit(TraceEvent event);

  TraceStats stats() const;

  /// Oldest-first copy of the buffered events.
  std::vector<TraceEvent> events() const;

  /// Writes the buffered events as JSON lines (oldest first).
  void write_jsonl(std::ostream& os) const;

  /// write_jsonl to `path`; false if the file cannot be opened.
  bool flush_to_file(const std::string& path) const;

  /// Routes util::logging output through this sink as kLog events (the
  /// stderr stream keeps working). Detached automatically on
  /// destruction; only one sink can be attached at a time (the newest
  /// attach wins).
  void attach_logger();
  void detach_logger();

  /// Ring capacity from ROOTSTRESS_TRACE_CAP, else `fallback`.
  static std::size_t capacity_from_env(
      std::size_t fallback = kDefaultCapacity);

  /// The instant wall_us counts from. The Runtime re-bases its phase
  /// profiler onto this so trace events and profiler slices share one
  /// time axis (what lets Perfetto overlay instants on the flamegraph).
  std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;   ///< grows to capacity, then wraps
  std::size_t capacity_;
  std::size_t next_ = 0;           ///< write position once wrapped
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  bool logger_attached_ = false;
};

/// Serializes one event as a single JSON line (no trailing newline).
std::string trace_event_json(const TraceEvent& event);

}  // namespace rootstress::obs
