// Counter-based randomness for Atlas probes.
//
// Probing is the one hot path that runs under the engine's thread pool,
// so its random draws cannot come from the engine's single sequential
// Rng: the draw order would depend on thread interleaving and results
// would differ run to run. Instead every probe derives its own stream
// from the probe's identity — (scenario seed, service, VP, probe time) —
// via stateless mix64 rounds. The draws a probe makes are therefore a
// pure function of that key: bit-identical for any thread count, any
// shard layout, and any execution order.
#pragma once

#include <cstdint>

#include "net/clock.h"
#include "util/rng.h"

namespace rootstress::sim {

/// The part of a probe's stream key that depends only on (seed, service,
/// VP): three of its four mix64 rounds. The engine computes it once per
/// (service, VP) and keys each probe with probe_stream_key(prefix, when).
inline std::uint64_t probe_key_prefix(std::uint64_t seed, int service_index,
                                      int vp_id) noexcept {
  std::uint64_t key = util::mix64(seed ^ 0x9e3779b97f4a7c15ull);
  key = util::mix64(key ^ (static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(service_index)) *
                           0x100000001b3ull));
  return util::mix64(key ^ (static_cast<std::uint64_t>(
                                static_cast<std::uint32_t>(vp_id)) *
                            0xc2b2ae3d27d4eb4full));
}

/// The seed a probe's stream is keyed on, from the probe's (seed,
/// service, VP) prefix and its time: the last mix64 round. Exposed
/// (rather than buried in the engine) so tests can assert the purity
/// contract directly.
inline std::uint64_t probe_stream_key(std::uint64_t prefix,
                                      net::SimTime when) noexcept {
  return util::mix64(prefix ^ static_cast<std::uint64_t>(when.ms));
}

/// Generator for one probe, from its key prefix and time. Draw order
/// inside a probe is fixed by the probe code path; across probes the
/// streams are independent.
inline util::Rng probe_rng(std::uint64_t prefix, net::SimTime when) noexcept {
  return util::Rng(probe_stream_key(prefix, when));
}

}  // namespace rootstress::sim
