#include "resolver/population.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rootstress::resolver {

namespace {

/// Answering from the local cache still costs the client a hop.
constexpr double kCacheAnswerMs = 1.0;

/// Pools below this size step their shards inline instead of through the
/// thread pool (see the dispatch-cost note in step()).
constexpr int kParallelResolverThreshold = 4096;

/// Each resolver's cache keeps an 8-byte expiry per name: 512 KB here.
constexpr int kMaxNameSpace = 65536;

/// Counter-based stream key for (seed, resolver, step): the same
/// chained-mix construction as sim/probe_rng.h, so a resolver's draws
/// depend only on its identity and the step — never on which thread ran
/// it or what other resolvers drew.
std::uint64_t resolver_stream_key(std::uint64_t seed, int resolver,
                                  std::uint64_t step) noexcept {
  std::uint64_t key = util::mix64(seed ^ 0x9e3779b97f4a7c15ull);
  key = util::mix64(
      key ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(resolver)) *
             0x100000001b3ull));
  key = util::mix64(key ^ (step * 0xc2b2ae3d27d4eb4full));
  return key;
}

void fnv_bytes(std::uint64_t& hash, const void* data,
               std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
}

template <typename T>
void fnv_value(std::uint64_t& hash, const T& value) noexcept {
  fnv_bytes(hash, &value, sizeof(value));
}

}  // namespace

std::string validate_population(const PopulationConfig& config) {
  if (config.resolvers < 1) return "resolver population must be positive";
  if (config.resolvers > 1'000'000) {
    return "resolver population above 1e6 (each resolver models a pool "
           "slice; scale demand instead)";
  }
  if (!(config.root_lookups_per_hour >= 0.0)) {
    return "root lookups per hour must be non-negative";
  }
  if (config.referral_ttl.ms <= 0) return "referral TTL must be positive";
  if (config.name_space < 1) return "name space must be positive";
  if (config.name_space > kMaxNameSpace) {
    return "name space above 65536 (each resolver's cache keeps an 8-byte "
           "expiry per name: 512 KB per resolver at the bound)";
  }
  if (!(config.demand_skew >= 0.0)) return "demand skew must be non-negative";
  if (config.max_attempts < 1) return "max attempts must be at least 1";
  if (!(config.per_try_timeout_ms > 0.0)) {
    return "per-try timeout must be positive";
  }
  return {};
}

obs::JsonValue population_fingerprint(const PopulationConfig& config) {
  obs::JsonValue doc = obs::JsonValue::object();
  // `name` is a display label, deliberately absent (playbook/fault idiom).
  doc.set("strategy", obs::JsonValue(to_string(config.strategy)));
  doc.set("resolvers", obs::JsonValue(config.resolvers));
  doc.set("root_lookups_per_hour",
          obs::JsonValue(config.root_lookups_per_hour));
  doc.set("referral_ttl_ms", obs::JsonValue(config.referral_ttl.ms));
  doc.set("name_space", obs::JsonValue(config.name_space));
  doc.set("demand_skew", obs::JsonValue(config.demand_skew));
  doc.set("max_attempts", obs::JsonValue(config.max_attempts));
  doc.set("per_try_timeout_ms", obs::JsonValue(config.per_try_timeout_ms));
  doc.set("enable_cache", obs::JsonValue(config.enable_cache));
  doc.set("cache_capacity",
          obs::JsonValue(static_cast<std::uint64_t>(config.cache_capacity)));
  // Only a cache that can fill up evicts, and only then does the rule
  // shape results; absent otherwise, so those profiles keep their keys.
  if (config.enable_cache && config.cache_capacity > 0 &&
      config.name_space > 0 &&
      static_cast<std::size_t>(config.name_space) > config.cache_capacity) {
    doc.set("eviction", obs::JsonValue("expiry-then-key"));
  }
  return doc;
}

double EndUserReport::success_rate() const noexcept {
  std::uint64_t queries = 0, failed = 0;
  for (const std::uint64_t q : client_queries) queries += q;
  for (const std::uint64_t f : failures) failed += f;
  if (queries == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(queries - failed) / static_cast<double>(queries);
}

double EndUserReport::cache_hit_rate() const noexcept {
  std::uint64_t queries = 0, hits = 0;
  for (const std::uint64_t q : client_queries) queries += q;
  for (const std::uint64_t h : cache_hits) hits += h;
  if (queries == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(hits) / static_cast<double>(queries);
}

double EndUserReport::retries_per_query() const noexcept {
  std::uint64_t queries = 0, retried = 0;
  for (const std::uint64_t q : client_queries) queries += q;
  for (const std::uint64_t r : retries) retried += r;
  if (queries == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(retried) / static_cast<double>(queries);
}

double EndUserReport::added_latency_ms() const noexcept {
  std::uint64_t queries = 0;
  double latency = 0.0;
  for (const std::uint64_t q : client_queries) queries += q;
  for (const double l : latency_sum_ms) latency += l;
  if (queries == 0) return std::numeric_limits<double>::quiet_NaN();
  return latency / static_cast<double>(queries);
}

double EndUserReport::success_rate_between(std::int64_t begin_ms,
                                           std::int64_t end_ms) const noexcept {
  std::uint64_t queries = 0, failed = 0;
  for (std::size_t bin = 0; bin < client_queries.size(); ++bin) {
    const std::int64_t left = start_ms + static_cast<std::int64_t>(bin) * bin_ms;
    if (left + bin_ms <= begin_ms || left >= end_ms) continue;
    queries += client_queries[bin];
    failed += failures[bin];
  }
  if (queries == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(queries - failed) / static_cast<double>(queries);
}

std::uint64_t EndUserReport::digest() const noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  fnv_value(hash, enabled);
  fnv_value(hash, start_ms);
  fnv_value(hash, bin_ms);
  const std::uint64_t bins = client_queries.size();
  fnv_value(hash, bins);
  for (std::size_t b = 0; b < client_queries.size(); ++b) {
    fnv_value(hash, client_queries[b]);
    fnv_value(hash, cache_hits[b]);
    fnv_value(hash, root_queries[b]);
    fnv_value(hash, retries[b]);
    fnv_value(hash, failures[b]);
    fnv_value(hash, std::bit_cast<std::uint64_t>(latency_sum_ms[b]));
  }
  return hash;
}

ResolverPopulation::ResolverPopulation(const PopulationConfig& config,
                                       std::uint64_t seed, net::SimTime start,
                                       net::SimTime end,
                                       net::SimTime step_width,
                                       net::SimTime bin_width)
    : config_(config), seed_(seed), start_(start), step_width_(step_width) {
  if (const std::string problem = validate_population(config_);
      !problem.empty()) {
    throw std::invalid_argument(problem);
  }
  queries_per_step_ =
      config_.root_lookups_per_hour / 3600.0 * step_width.seconds();

  // Fixed shard layout: enough shards for any sane pool to spread across,
  // never a function of the thread count. parallel_for only decides which
  // worker runs which shard; the shard -> resolver mapping and the merge
  // order below are constants of the config.
  shard_count_ = std::min(64, config_.resolvers);
  shard_totals_.resize(static_cast<std::size_t>(shard_count_));

  // Hyperbolic demand weights, normalized to mean 1 so the configured
  // per-resolver rate stays the pool mean for any skew.
  std::vector<double> weights(static_cast<std::size_t>(config_.resolvers));
  double total = 0.0;
  for (int r = 0; r < config_.resolvers; ++r) {
    weights[static_cast<std::size_t>(r)] =
        std::pow(static_cast<double>(r + 1), -config_.demand_skew);
    total += weights[static_cast<std::size_t>(r)];
  }
  const double norm =
      total > 0.0 ? static_cast<double>(config_.resolvers) / total : 1.0;

  resolvers_.reserve(static_cast<std::size_t>(config_.resolvers));
  // Names are drawn as indices in [0, name_space), so they key the
  // cache's table directly; a cache-less resolver never looks one up.
  const std::size_t cache_capacity =
      config_.enable_cache ? config_.cache_capacity : 0;
  const std::size_t cache_keys =
      config_.enable_cache ? static_cast<std::size_t>(config_.name_space) : 0;
  for (int r = 0; r < config_.resolvers; ++r) {
    // `r` as the fixed preference spreads fresh kSrtt/kFixed resolvers
    // across letters instead of herding the pool (satellite 2's bug).
    resolvers_.push_back(ResolverState{
        LetterSelector(config_.strategy, r),
        TtlCache(cache_capacity, cache_keys),
        weights[static_cast<std::size_t>(r)] * norm});
  }

  const std::int64_t span = end.ms - start.ms;
  const std::size_t bins = span > 0
                               ? static_cast<std::size_t>(
                                     (span + bin_width.ms - 1) / bin_width.ms)
                               : 0;
  report_.enabled = true;
  report_.start_ms = start.ms;
  report_.bin_ms = bin_width.ms;
  report_.client_queries.assign(bins, 0);
  report_.cache_hits.assign(bins, 0);
  report_.root_queries.assign(bins, 0);
  report_.retries.assign(bins, 0);
  report_.failures.assign(bins, 0);
  report_.latency_sum_ms.assign(bins, 0.0);
}

void ResolverPopulation::step(net::SimTime t,
                              const std::array<double, kLetterCount>& success,
                              const std::array<double, kLetterCount>& rtt_ms,
                              double demand_scale, util::ThreadPool& pool) {
  const std::uint64_t step_index = step_index_++;
  const std::size_t n = resolvers_.size();
  const auto shards = static_cast<std::size_t>(shard_count_);

  const auto run_shard = [&](std::size_t shard) {
    ShardTotals& totals = shard_totals_[shard];
    totals = ShardTotals{};
    // Contiguous resolver ranges per shard; each resolver's state is
    // touched only by its (fixed) shard, and draws come from the
    // resolver's own stream.
    const std::size_t begin = n * shard / shards;
    const std::size_t end = n * (shard + 1) / shards;
    for (std::size_t r = begin; r < end; ++r) {
      ResolverState& state = resolvers_[r];
      util::Rng rng(resolver_stream_key(seed_, static_cast<int>(r),
                                        step_index));
      const double mean =
          queries_per_step_ * state.demand_weight * demand_scale;
      const std::uint64_t queries = mean > 0.0 ? rng.poisson(mean) : 0;
      for (std::uint64_t q = 0; q < queries; ++q) {
        ++totals.client_queries;
        const std::uint64_t name =
            rng.below(static_cast<std::uint64_t>(config_.name_space));
        if (config_.enable_cache && state.cache.hit(name, t)) {
          ++totals.cache_hits;
          totals.latency_sum_ms += kCacheAnswerMs;
          continue;
        }
        bool answered = false;
        double latency = 0.0;
        for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
          const int letter = state.selector.pick(attempt, rng);
          ++totals.root_queries;
          if (attempt > 0) ++totals.retries;
          const auto li = static_cast<std::size_t>(letter);
          const double rtt = rtt_ms[li];
          if (rng.chance(success[li]) && rtt < config_.per_try_timeout_ms) {
            latency += rtt;
            state.selector.report(letter, true, rtt);
            if (config_.enable_cache) {
              state.cache.put(name, t, config_.referral_ttl);
            }
            answered = true;
            break;
          }
          latency += config_.per_try_timeout_ms;
          state.selector.report(letter, false, rtt);
        }
        if (!answered) ++totals.failures;
        totals.latency_sum_ms += latency;
      }
    }
  };

  // Pool dispatch costs microseconds per call — real money over hundreds
  // of thousands of engine steps when each shard only draws a handful of
  // queries. Small pools run their shards inline; the per-shard code and
  // the serial merge below are identical either way, so the report
  // cannot depend on this choice.
  if (config_.resolvers >= kParallelResolverThreshold) {
    pool.parallel_for(shards, run_shard);
  } else {
    for (std::size_t shard = 0; shard < shards; ++shard) run_shard(shard);
  }

  // Serial merge in shard order: the floating-point accumulation order is
  // a constant of the shard layout, never of the thread count.
  const std::size_t bin =
      report_.bin_ms > 0 && t.ms >= report_.start_ms
          ? static_cast<std::size_t>((t.ms - report_.start_ms) /
                                     report_.bin_ms)
          : report_.client_queries.size();
  last_step_ = StepTotals{};
  for (const ShardTotals& totals : shard_totals_) {
    last_step_.client_queries += totals.client_queries;
    last_step_.cache_hits += totals.cache_hits;
    last_step_.root_queries += totals.root_queries;
    last_step_.retries += totals.retries;
    last_step_.failures += totals.failures;
    last_step_.latency_sum_ms += totals.latency_sum_ms;
  }
  if (bin < report_.client_queries.size()) {
    report_.client_queries[bin] += last_step_.client_queries;
    report_.cache_hits[bin] += last_step_.cache_hits;
    report_.root_queries[bin] += last_step_.root_queries;
    report_.retries[bin] += last_step_.retries;
    report_.failures[bin] += last_step_.failures;
    report_.latency_sum_ms[bin] += last_step_.latency_sum_ms;
  }
}

}  // namespace rootstress::resolver
