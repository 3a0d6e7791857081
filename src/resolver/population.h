// In-loop recursive-resolver population: the client side of the paper's
// muted-user-impact argument (§2.3, §6), stepped inside the engine.
//
// A ResolverPopulation models a fleet of recursive resolvers sitting
// between end users and the root: each resolver owns a TTL referral
// cache (multi-day TTLs mean most client queries never reach the root at
// all), a LetterSelector for failover across the thirteen letters, and a
// hyperbolic share of the client demand (a few busy resolvers carry most
// of the load — the paper's resolver-pool skew). Every engine step the
// population receives the letters' *live* answered fractions and queue
// delays, draws this step's client queries, and resolves them through
// cache -> pick -> retry, producing the user-experience series
// (resolution success, added latency, cache hit ratio, retries) that the
// server-side series cannot express.
//
// Determinism contract (same pattern as sim/probe_rng.h): every resolver
// draws from a counter-based RNG stream keyed on (seed, resolver, step),
// resolvers are partitioned into a FIXED shard layout independent of the
// thread count, each shard accumulates into its own buffers, and shards
// merge serially in shard order — so the EndUserReport digest is
// bit-identical at any thread count. The population only *reads* the
// fluid step's published outputs; server-side results are bit-identical
// with the population on or off.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/clock.h"
#include "obs/json.h"
#include "resolver/cache.h"
#include "resolver/selection.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace rootstress::resolver {

/// Everything that shapes a resolver population's behaviour. Pure data
/// (Playbook idiom): build by hand, validate_population() checks it,
/// population_fingerprint() keys the campaign cache on its content.
struct PopulationConfig {
  /// Display label (campaign axis labels, logs). Not fingerprinted.
  std::string name = "default";
  Strategy strategy = Strategy::kSrtt;
  /// Modeled recursive resolvers. Each stands for a slice of the real
  /// resolver pool; per-resolver demand is skewed (see demand_skew).
  int resolvers = 256;
  /// Mean client queries per resolver-hour before skew; a resolver's
  /// actual rate is this times its hyperbolic demand weight.
  double root_lookups_per_hour = 60.0;
  /// TTL of a cached referral (the paper's §6: TLD referrals carry
  /// multi-day TTLs; 24h is a conservative floor).
  net::SimTime referral_ttl = net::SimTime::from_hours(24);
  /// Distinct query names per resolver (controls the cache hit rate).
  /// At most 65536: each resolver's cache keeps an 8-byte expiry per name.
  int name_space = 500;
  /// Hyperbolic demand skew: resolver r's weight is 1/(r+1)^skew,
  /// normalized to mean 1. 0 = uniform demand; 1 = classic Zipf-ish
  /// head-heavy pool.
  double demand_skew = 1.0;
  /// Attempts per uncached query (first try + retries).
  int max_attempts = 3;
  /// An attempt slower than this counts as failed (client-side timer).
  double per_try_timeout_ms = 1500.0;
  bool enable_cache = true;
  /// Per-resolver cache capacity; 0 disables storage outright. Only a
  /// capacity below name_space can fill, and then the entry nearest
  /// expiry is evicted (a tie goes to the smallest name).
  std::size_t cache_capacity = 1000;

  bool operator==(const PopulationConfig&) const = default;
};

/// Empty when the config is usable, else the first problem (the engine
/// and ResolverPopulation reject invalid profiles with
/// std::invalid_argument carrying this).
std::string validate_population(const PopulationConfig& config);

/// Canonical content fingerprint for the campaign cache. The name is a
/// display label and is excluded (same convention as playbook / fault).
/// An "eviction" field naming the eviction rule appears only when the
/// cache can evict (enabled, 0 < cache_capacity < name_space).
obs::JsonValue population_fingerprint(const PopulationConfig& config);

/// The population's user-experience series: per-bin counters plus
/// aggregates. Pure data, bit-identical at any thread count.
struct EndUserReport {
  bool enabled = false;       ///< false = the run had no population
  std::int64_t start_ms = 0;  ///< first bin's left edge
  std::int64_t bin_ms = 0;    ///< analysis bin width

  /// Per-bin counters (all sized to the run's bin count when enabled).
  std::vector<std::uint64_t> client_queries;  ///< user lookups issued
  std::vector<std::uint64_t> cache_hits;      ///< answered from cache
  std::vector<std::uint64_t> root_queries;    ///< attempts sent rootward
  std::vector<std::uint64_t> retries;         ///< attempts beyond the first
  std::vector<std::uint64_t> failures;        ///< queries with no answer
  std::vector<double> latency_sum_ms;         ///< total client-side latency

  /// Whole-run aggregates. NaN when no client queries were issued.
  double success_rate() const noexcept;
  double cache_hit_rate() const noexcept;
  double retries_per_query() const noexcept;
  /// Mean client-observed latency per query (cache hits included).
  double added_latency_ms() const noexcept;
  /// Resolution success over [begin_ms, end_ms) only (duel windows).
  double success_rate_between(std::int64_t begin_ms,
                              std::int64_t end_ms) const noexcept;

  /// Order-sensitive FNV-1a over geometry and every counter/sum bit
  /// pattern: one integer the determinism gates compare across thread
  /// counts.
  std::uint64_t digest() const noexcept;
};

/// The live population. Constructed by the engine when the scenario sets
/// a resolver profile; step() runs once per engine step, after the fluid
/// pass published the letters' served/failed loads.
class ResolverPopulation {
 public:
  /// `seed` is the scenario seed (streams are derived per resolver/step);
  /// [start, end) at `step_width` defines the step grid, `bin_width` the
  /// report's bin geometry.
  ResolverPopulation(const PopulationConfig& config, std::uint64_t seed,
                     net::SimTime start, net::SimTime end,
                     net::SimTime step_width, net::SimTime bin_width);

  /// Per-letter inputs for one step, read from the fluid pass's published
  /// state: success[i] = the letter's legit answered fraction this step,
  /// rtt_ms[i] = base RTT plus the letter's offered-weighted queue delay.
  /// `demand_scale` couples flash crowds (fault legit surges) into client
  /// demand. Internally parallel over the fixed shard layout; call from a
  /// serial engine phase.
  void step(net::SimTime t, const std::array<double, kLetterCount>& success,
            const std::array<double, kLetterCount>& rtt_ms,
            double demand_scale, util::ThreadPool& pool);

  /// Last step's totals (timeline recording reads these right after
  /// step()).
  struct StepTotals {
    std::uint64_t client_queries = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t root_queries = 0;
    std::uint64_t retries = 0;
    std::uint64_t failures = 0;
    double latency_sum_ms = 0.0;
  };
  const StepTotals& last_step() const noexcept { return last_step_; }

  const EndUserReport& report() const noexcept { return report_; }
  const PopulationConfig& config() const noexcept { return config_; }
  int shard_count() const noexcept { return shard_count_; }

 private:
  struct ResolverState {
    LetterSelector selector;
    TtlCache cache;
    double demand_weight = 1.0;
  };

  /// Shard-local accumulator for one step (merged serially in shard
  /// order; shards own disjoint resolver ranges).
  struct ShardTotals {
    std::uint64_t client_queries = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t root_queries = 0;
    std::uint64_t retries = 0;
    std::uint64_t failures = 0;
    double latency_sum_ms = 0.0;
  };

  PopulationConfig config_;
  std::uint64_t seed_ = 0;
  net::SimTime start_{};
  net::SimTime step_width_{};
  double queries_per_step_ = 0.0;  ///< mean per resolver before weighting
  /// Fixed shard layout: independent of the thread count so the merge
  /// order (and therefore every sum) is bit-identical at any concurrency.
  int shard_count_ = 1;
  std::vector<ResolverState> resolvers_;
  std::vector<ShardTotals> shard_totals_;
  std::uint64_t step_index_ = 0;
  StepTotals last_step_{};
  EndUserReport report_;
};

}  // namespace rootstress::resolver
