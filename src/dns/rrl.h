// DNS Response Rate Limiting (Vixie/ISC-style RRL).
//
// During the 2015 events, Verisign reported that RRL identified duplicate
// queries and suppressed ~60% of responses (§2.3). We implement the
// standard token-bucket-per-(source-block, qname) scheme for the packet
// path, plus an analytic helper the fluid layer uses for aggregate rates.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "net/clock.h"
#include "net/ipv4.h"

namespace rootstress::obs {
class Counter;
class Runtime;
}  // namespace rootstress::obs

namespace rootstress::dns {

/// What to do with a would-be response.
enum class RrlAction {
  kRespond,   ///< send the full response
  kDrop,      ///< send nothing
  kSlip,      ///< send a minimal truncated (TC) response
};

/// RRL configuration.
struct RrlConfig {
  bool enabled = true;
  double responses_per_second = 5.0;  ///< steady-state rate per bucket
  double burst = 10.0;                ///< bucket depth
  int slip = 2;                       ///< every slip-th dropped response slips
  int source_prefix_len = 24;         ///< aggregation block for sources
};

/// Token-bucket response rate limiter keyed by (source block, qname hash).
///
/// Spoofed sources can name a new (block, qname) pair with every packet,
/// so the bucket table bounds itself: as `now` advances, at most once per
/// `burst / responses_per_second` seconds, it drops every bucket that has
/// refilled to `burst`. With `burst >= 1` such a bucket's next decision
/// (refill to `burst`, respond, zero the drop count) is exactly a fresh
/// bucket's, so on a clock that never runs backwards the sweep changes no
/// decision. The table then holds only pairs active in about the last two
/// sweep intervals.
class ResponseRateLimiter {
 public:
  explicit ResponseRateLimiter(RrlConfig config = {});

  /// Decides the fate of one response at simulated time `now`.
  RrlAction decide(net::Ipv4Addr source, std::uint64_t qname_hash,
                   net::SimTime now);

  /// Counters since construction.
  std::uint64_t responded() const noexcept { return responded_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t slipped() const noexcept { return slipped_; }

  /// Fraction of decisions that produced no full response; 0 if none yet.
  double suppression_rate() const noexcept;

  /// Buckets currently held.
  std::size_t bucket_count() const noexcept { return buckets_.size(); }

  const RrlConfig& config() const noexcept { return config_; }

  /// Turns the limiter on or off at runtime (reactive defenses toggle RRL
  /// mid-run). Bucket state is kept, so re-enabling resumes where the
  /// limiter left off.
  void set_enabled(bool on) noexcept { config_.enabled = on; }

  /// Attaches telemetry (nullable): per-letter respond/drop/slip counters
  /// plus an "rrl-suppression" trace event + debug log when a limiter
  /// first starts suppressing. `site` is the "X-APT" label used in
  /// events.
  void attach_obs(obs::Runtime* runtime, char letter, std::string site);

 private:
  struct Bucket {
    double tokens = 0.0;
    net::SimTime last{};
    int drop_count = 0;
  };

  /// Drops every bucket whose refill at `now` reaches `burst`.
  void expire_idle(net::SimTime now);

  RrlConfig config_;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
  /// Sweep period (burst / rate); 0 when no bucket can safely expire.
  net::SimTime sweep_every_{};
  net::SimTime next_sweep_{};
  std::uint64_t responded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t slipped_ = 0;

  // Telemetry (null when unattached).
  obs::Runtime* obs_ = nullptr;
  obs::Counter* responded_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* slipped_counter_ = nullptr;
  char letter_ = '\0';
  std::string site_;
  bool suppressing_ = false;
};

/// Analytic aggregate model: the expected fraction of responses RRL
/// suppresses when `duplicate_fraction` of the query stream consists of
/// repeats of (source, qname) pairs already seen within the rate window.
/// Used by the fluid layer where individual packets are not materialized.
double expected_suppression(double duplicate_fraction) noexcept;

}  // namespace rootstress::dns
