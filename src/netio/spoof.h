// Per-worker shard of the attack's spoofed-source model.
//
// The 2015 events paired fixed query names with forged sources: 895M
// distinct addresses at A+J, yet the top 200 sources carried 68% of the
// queries (§2.3) — the same skew attack::BotnetConfig models for the
// fluid layer. The wire generator reproduces that mix per packet: a
// `spoof_uniform_fraction` slice draws uniform 32-bit addresses, the rest
// comes from a fixed heavy-hitter table with 1/rank weights. Each worker
// gets an independent shard (forked RNG stream keyed by worker index) so
// threads never share state and a worker's draw sequence is reproducible
// regardless of how many other workers run — the same counter-stream
// discipline the parallel engine uses.
//
// Loopback sockets cannot forge IP headers without raw-socket privilege,
// so the drawn address travels as an EDNS Client Subnet option and the
// server-under-test keys RRL on it (dns::ClientSubnet; WireServerConfig).
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.h"
#include "util/rng.h"

namespace rootstress::netio {

/// Source-model parameters; defaults mirror attack::BotnetConfig.
struct SpoofConfig {
  double spoof_uniform_fraction = 0.32;
  int heavy_hitters = 200;
  std::uint64_t seed = 99;
};

/// One worker's view of the source model.
class SpoofShard {
 public:
  /// `worker_index` in [0, worker_count). All shards of one config share
  /// the heavy-hitter table; draw streams are independent per worker.
  SpoofShard(const SpoofConfig& config, int worker_index, int worker_count);

  /// Draws the next modeled source address.
  net::Ipv4Addr next();

  /// The shared heavy-hitter table (descending weight).
  const std::vector<net::Ipv4Addr>& heavy_hitters() const noexcept {
    return hitters_;
  }

  const SpoofConfig& config() const noexcept { return config_; }
  int worker_index() const noexcept { return worker_index_; }

 private:
  SpoofConfig config_;
  int worker_index_;
  std::vector<net::Ipv4Addr> hitters_;
  std::vector<double> cumulative_;  ///< 1/rank weights, normalized CDF
  util::Rng rng_;
};

}  // namespace rootstress::netio
