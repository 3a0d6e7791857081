// Wire-speed DNS load generator: replays attack schedules as real UDP
// queries.
//
// Architecture (modeled on dnstress's worker/sender pools, then pushed
// further): N worker threads, each owning its socket, packet arena,
// token-bucket pacer (target rate / N, re-targeted every tick from the
// shared RateEnvelope), and spoofed-source shard. Packets are built by
// patching a pre-encoded query template — 2-byte message id, 4-byte ECS
// source — never by re-encoding, and leave in sendmmsg batches (portable
// single-syscall fallback selectable). Responses are matched by id
// against a per-worker in-flight ring and by comparing the echoed
// question section against the template's bytes (ID + qname matching
// without a decode on the hot path); matches feed an RTT histogram and
// the answered count, both merged into the final report and exposed to
// obs/ via record_into.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netio/envelope.h"
#include "netio/socket.h"
#include "netio/spoof.h"
#include "util/histogram.h"

namespace rootstress::obs {
class MetricsRegistry;
}  // namespace rootstress::obs

namespace rootstress::netio {

struct GeneratorConfig {
  /// Target servers; packets round-robin across them (per-letter
  /// targeting = one endpoint per letter under attack).
  std::vector<net::Endpoint> targets;
  int workers = 1;
  double duration_s = 1.0;
  /// Aggregate offered rate over wall time (all workers, all targets).
  RateEnvelope envelope = RateEnvelope::constant(10e3);
  /// Query shape: the 2015 events' fixed names by default.
  std::string qname = "www.336901.com";
  /// Attach the modeled spoofed source as an EDNS Client Subnet option
  /// (every query carries EDNS0 with a 4096-byte UDP limit).
  bool spoof_sources = true;
  SpoofConfig spoof{};
  std::size_t batch = 32;
  BatchMode batch_mode = BatchMode::kAuto;
  /// Post-deadline window to collect still-in-flight responses.
  double drain_grace_s = 0.25;
  /// RTT histogram geometry (default 0.05ms bins to 100ms).
  double rtt_bin_ms = 0.05;
  std::size_t rtt_bins = 2000;
};

struct GeneratorReport {
  double duration_s = 0.0;
  double requested_qps = 0.0;  ///< envelope mean over the run
  double achieved_qps = 0.0;   ///< packets actually sent / duration
  std::uint64_t sent = 0;
  std::uint64_t received = 0;     ///< datagrams back, any kind
  std::uint64_t answered = 0;     ///< matched full responses
  std::uint64_t truncated = 0;    ///< matched TC responses (RRL slip)
  std::uint64_t unmatched = 0;    ///< responses matching no in-flight id
  std::uint64_t lost = 0;         ///< id slots overwritten unanswered
  std::uint64_t send_shortfall = 0;  ///< paced sends the kernel refused
  double answered_fraction = 0.0;    ///< answered / sent
  util::FixedBinHistogram rtt_ms{0.05, 2000};
  double rtt_p50_ms = 0.0;
  double rtt_p90_ms = 0.0;
  double rtt_p99_ms = 0.0;

  /// Feeds the report into a metrics registry: netio.* counters plus the
  /// netio.rtt_ms histogram and netio.answered_fraction gauge.
  void record_into(obs::MetricsRegistry& metrics) const;
};

/// Histogram quantile (linear interpolation inside the containing bin);
/// NaN when empty. Shared by the report and bench assertions.
double histogram_quantile(const util::FixedBinHistogram& hist, double q);

class LoadGenerator {
 public:
  explicit LoadGenerator(GeneratorConfig config);

  /// Runs the configured load to completion (duration + drain grace) and
  /// returns the merged report. On setup failure (no target, socket
  /// errors) returns a zero report and sets `error`.
  GeneratorReport run(std::string* error = nullptr);

  const GeneratorConfig& config() const noexcept { return config_; }

 private:
  GeneratorConfig config_;
};

}  // namespace rootstress::netio
