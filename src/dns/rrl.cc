#include "dns/rrl.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/runtime.h"
#include "util/logging.h"
#include "util/rng.h"

namespace rootstress::dns {

ResponseRateLimiter::ResponseRateLimiter(RrlConfig config)
    : config_(config) {
  // Below one token a refilled bucket still drops, and its drop count
  // (the slip phase) differs from a fresh bucket's; without a positive
  // rate nothing refills. Past ~30 years of sim time a sweep never comes.
  if (config_.burst >= 1.0 && config_.responses_per_second > 0.0) {
    const double every_ms =
        std::ceil(1000.0 * config_.burst / config_.responses_per_second);
    if (every_ms < 1e12) {
      sweep_every_ = net::SimTime(static_cast<std::int64_t>(every_ms));
    }
  }
}

RrlAction ResponseRateLimiter::decide(net::Ipv4Addr source,
                                      std::uint64_t qname_hash,
                                      net::SimTime now) {
  if (!config_.enabled) {
    ++responded_;
    if (responded_counter_ != nullptr) responded_counter_->add();
    return RrlAction::kRespond;
  }
  if (sweep_every_.ms > 0 && now >= next_sweep_) {
    expire_idle(now);
    next_sweep_ = now + sweep_every_;
  }
  const int shift = 32 - std::clamp(config_.source_prefix_len, 0, 32);
  const std::uint32_t block = shift >= 32 ? 0 : (source.value() >> shift);
  const std::uint64_t key = util::mix64(qname_hash ^ (std::uint64_t{block} << 17));

  auto [it, inserted] = buckets_.try_emplace(key);
  Bucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = config_.burst;
    bucket.last = now;
  } else {
    const double elapsed_s = (now - bucket.last).seconds();
    if (elapsed_s > 0) {
      bucket.tokens = std::min(config_.burst,
                               bucket.tokens +
                                   elapsed_s * config_.responses_per_second);
      bucket.last = now;
    }
  }
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    bucket.drop_count = 0;
    ++responded_;
    if (responded_counter_ != nullptr) responded_counter_->add();
    suppressing_ = false;
    return RrlAction::kRespond;
  }
  ++bucket.drop_count;
  if (!suppressing_) {
    // Suppression onset: RRL silently eats responses from here on; leave a
    // trace so the drop shows up somewhere (it once did not).
    suppressing_ = true;
    RS_LOG_DEBUG << "RRL suppression onset at "
                 << (site_.empty() ? "server" : site_) << " " << now.to_string();
    obs::emit_event(obs_, obs::TraceEventType::kRrlSuppression, now, letter_,
                    site_, "token bucket exhausted; dropping responses",
                    suppression_rate());
  }
  if (config_.slip > 0 && bucket.drop_count % config_.slip == 0) {
    ++slipped_;
    if (slipped_counter_ != nullptr) slipped_counter_->add();
    return RrlAction::kSlip;
  }
  ++dropped_;
  if (dropped_counter_ != nullptr) dropped_counter_->add();
  return RrlAction::kDrop;
}

void ResponseRateLimiter::attach_obs(obs::Runtime* runtime, char letter,
                                     std::string site) {
  obs_ = runtime;
  letter_ = letter;
  site_ = std::move(site);
  if (runtime == nullptr) {
    responded_counter_ = nullptr;
    dropped_counter_ = nullptr;
    slipped_counter_ = nullptr;
    return;
  }
  const obs::Labels labels{{"letter", std::string(1, letter)}};
  responded_counter_ = &runtime->metrics().counter("rrl.responded", labels);
  dropped_counter_ = &runtime->metrics().counter("rrl.dropped", labels);
  slipped_counter_ = &runtime->metrics().counter("rrl.slipped", labels);
}

double ResponseRateLimiter::suppression_rate() const noexcept {
  const std::uint64_t total = responded_ + dropped_ + slipped_;
  if (total == 0) return 0.0;
  return static_cast<double>(dropped_ + slipped_) / static_cast<double>(total);
}

void ResponseRateLimiter::expire_idle(net::SimTime now) {
  // The same refill arithmetic as decide(): a bucket full at `now` is
  // full at any later decision too.
  std::erase_if(buckets_, [&](const auto& entry) {
    const Bucket& bucket = entry.second;
    const double elapsed_s = (now - bucket.last).seconds();
    return elapsed_s > 0 &&
           bucket.tokens + elapsed_s * config_.responses_per_second >=
               config_.burst;
  });
}

double expected_suppression(double duplicate_fraction) noexcept {
  // Repeat traffic beyond the bucket rate is suppressed; first-seen pairs
  // always pass. The bucket rate is small relative to attack repetition,
  // so suppression ~= the duplicate fraction itself.
  return std::clamp(duplicate_fraction, 0.0, 1.0);
}

}  // namespace rootstress::dns
