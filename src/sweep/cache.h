// Content-addressed run cache.
//
// A campaign cell is identified by what the engine would actually
// simulate: the fully-resolved ScenarioConfig, canonically fingerprinted
// as JSON and hashed (FNV-1a 64) together with a code-version salt. The
// cache maps that key to the cell's serialized RunSummary on disk, so
// re-running a campaign after editing one axis only recomputes the
// changed cells, and a fully warm campaign executes zero engine runs.
//
// Keying rules:
//  - `threads` and `telemetry` are EXCLUDED from the fingerprint: both
//    are bit-identical-result-invariant by the engine's determinism
//    contract, so a summary computed at any thread count serves all.
//  - The salt must change whenever simulation semantics change
//    (kCodeVersionSalt below); stale entries then simply miss.
//  - Cache files are written via a temp file + rename so a crashed or
//    concurrent writer never leaves a torn entry; unreadable or
//    unparsable entries count as misses (and `invalid` in CacheStats).
//  - The directory is safely shared across processes: the fabric's
//    worker fleet reads and writes one cache concurrently, so every
//    disk observation is a hint — corrupt, truncated, or vanished
//    entries degrade to misses, never to campaign failures.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "sim/scenario.h"
#include "sweep/summary.h"

namespace rootstress::sweep {

/// Bump on any change that alters simulation results for an unchanged
/// config, so every previously cached summary self-invalidates.
inline constexpr std::string_view kCodeVersionSalt = "rootstress-sim-v6";

/// Canonical JSON fingerprint of everything that affects a run's results
/// (excludes `threads` and `telemetry`; see file comment). Stable across
/// processes: field order is fixed, doubles dump shortest-exact.
obs::JsonValue scenario_fingerprint(const sim::ScenarioConfig& config);

/// FNV-1a 64 over the fingerprint serialization plus `salt`.
std::uint64_t config_hash(const sim::ScenarioConfig& config,
                          std::string_view salt = kCodeVersionSalt);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t invalid = 0;  ///< present but unreadable/unparsable
};

/// Disk-backed summary cache. Thread-safe: distinct keys map to distinct
/// files, same-key writers race benignly through the rename, and the
/// stats counters are atomic under the hood (summed into CacheStats on
/// read).
class RunCache {
 public:
  /// Creates `dir` (and parents) if missing.
  explicit RunCache(std::filesystem::path dir,
                    std::string salt = std::string(kCodeVersionSalt));

  /// The (salted) key for a config.
  std::uint64_t key(const sim::ScenarioConfig& config) const;

  /// Loads the summary for `key`; nullopt (a miss) when absent or
  /// unreadable.
  std::optional<RunSummary> load(std::uint64_t key);

  /// Persists `summary` under `key`.
  void store(std::uint64_t key, const RunSummary& summary);

  CacheStats stats() const noexcept;
  const std::filesystem::path& directory() const noexcept { return dir_; }
  const std::string& salt() const noexcept { return salt_; }

 private:
  std::filesystem::path entry_path(std::uint64_t key) const;

  std::filesystem::path dir_;
  std::string salt_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> invalid_{0};
};

}  // namespace rootstress::sweep
