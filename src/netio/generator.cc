#include "netio/generator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "dns/edns.h"
#include "dns/message.h"
#include "dns/wire.h"
#include "netio/arena.h"
#include "netio/pacing.h"
#include "obs/metrics.h"

namespace rootstress::netio {
namespace {

/// ECS placeholder the template encodes; the worker locates these bytes
/// once and patches the modeled source per packet. Not ASCII, so it can
/// never collide with qname labels.
constexpr std::uint32_t kEcsPlaceholder = 0xdeadbeefu;

std::int64_t now_ns(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// Per-worker tallies, merged after join.
struct WorkerTally {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t answered = 0;
  std::uint64_t truncated = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t lost = 0;
  std::uint64_t send_shortfall = 0;
  util::FixedBinHistogram rtt_ms{0.05, 2000};
  std::string error;

  explicit WorkerTally(const GeneratorConfig& config)
      : rtt_ms(config.rtt_bin_ms, config.rtt_bins) {}
};

struct QueryTemplate {
  std::vector<std::uint8_t> wire;
  std::size_t question_begin = 12;
  std::size_t question_size = 0;   ///< qname + type + class bytes
  std::size_t ecs_offset = 0;      ///< 0 = no ECS patching
  bool ok = false;
  std::string error;
};

QueryTemplate build_template(const GeneratorConfig& config) {
  QueryTemplate t;
  const auto qname = dns::Name::parse(config.qname);
  if (!qname.has_value()) {
    t.error = "bad qname: " + config.qname;
    return t;
  }
  dns::Message query = dns::Message::query(0, *qname, dns::RrType::kA,
                                           dns::RrClass::kIn);
  std::optional<dns::ClientSubnet> ecs;
  if (config.spoof_sources) {
    ecs = dns::ClientSubnet{net::Ipv4Addr(kEcsPlaceholder), 32, 0};
  }
  dns::add_edns(query, 4096, false, ecs);
  t.wire = dns::encode(query);
  t.question_size = qname->wire_length() + 4;
  if (config.spoof_sources) {
    // Locate the placeholder's 4 bytes (scan backwards: the OPT record
    // trails the question).
    const std::uint8_t pattern[4] = {0xde, 0xad, 0xbe, 0xef};
    for (std::size_t i = t.wire.size(); i >= t.question_begin + 4; --i) {
      if (std::memcmp(t.wire.data() + i - 4, pattern, 4) == 0) {
        t.ecs_offset = i - 4;
        break;
      }
    }
    if (t.ecs_offset == 0) {
      t.error = "ECS placeholder not found in encoded template";
      return t;
    }
  }
  t.ok = true;
  return t;
}

void worker_main(const GeneratorConfig& config, const QueryTemplate& tmpl,
                 int worker_index, WorkerTally& tally) {
  UdpSocket socket = UdpSocket::open(config.batch_mode, &tally.error);
  if (!socket.valid()) return;
  socket.set_buffer_bytes(UdpSocket::kBufferBytes);

  const std::size_t batch = std::max<std::size_t>(1, config.batch);
  // Slots [0, batch) stage outgoing queries; [batch, 2*batch) receive.
  PacketArena arena(batch * 2, std::max(kMaxPacketBytes, tmpl.wire.size()));
  SpoofShard spoof(config.spoof, worker_index, config.workers);
  TokenBucket bucket(0.0, static_cast<double>(batch) * 4);

  // In-flight ring indexed by message id; value = send time ns (-1 free).
  std::vector<std::int64_t> in_flight(65536, -1);
  std::uint32_t sequence = static_cast<std::uint32_t>(worker_index) << 12;
  std::size_t target_rr = static_cast<std::size_t>(worker_index);

  std::vector<Datagram> out(batch);
  std::vector<Datagram> in(batch);
  const auto epoch = std::chrono::steady_clock::now();
  const std::int64_t duration_ns =
      static_cast<std::int64_t>(config.duration_s * 1e9);
  const std::int64_t drain_ns =
      duration_ns + static_cast<std::int64_t>(config.drain_grace_s * 1e9);
  const double per_worker = 1.0 / static_cast<double>(std::max(1, config.workers));

  auto drain = [&](std::int64_t recv_ns) {
    std::size_t drained = 0;
    for (;;) {
      for (std::size_t i = 0; i < batch; ++i) {
        in[i].payload = arena.slot(batch + i);
      }
      const std::size_t received = socket.recv_batch({in.data(), batch});
      if (received == 0) break;
      drained += received;
      tally.received += received;
      for (std::size_t i = 0; i < received; ++i) {
        const auto& p = in[i].payload;
        if (p.size() < tmpl.question_begin + tmpl.question_size) {
          ++tally.unmatched;
          continue;
        }
        // Response matching without a decode: id from the header, qname
        // via byte-compare of the echoed question against the template.
        const std::uint16_t id =
            static_cast<std::uint16_t>((p[0] << 8) | p[1]);
        const bool qr = (p[2] & 0x80) != 0;
        const bool tc = (p[2] & 0x02) != 0;
        const std::uint8_t rcode = p[3] & 0x0f;
        const bool question_matches =
            std::memcmp(p.data() + tmpl.question_begin,
                        tmpl.wire.data() + tmpl.question_begin,
                        tmpl.question_size) == 0;
        std::int64_t& slot = in_flight[id];
        if (!qr || !question_matches || slot < 0) {
          ++tally.unmatched;
          continue;
        }
        const double rtt_ms = static_cast<double>(recv_ns - slot) * 1e-6;
        slot = -1;
        if (tc) {
          ++tally.truncated;  // RRL slip: a response, not an answer
        } else if (rcode == 0) {
          ++tally.answered;
          tally.rtt_ms.add(rtt_ms);
        } else {
          ++tally.truncated;
        }
      }
    }
    return drained;
  };

  for (;;) {
    const std::int64_t t = now_ns(epoch);
    if (t >= duration_ns) break;
    bucket.set_rate(config.envelope.qps_at(static_cast<double>(t) * 1e-9) *
                    per_worker);
    const std::size_t grant = bucket.grab(batch, t);
    if (grant > 0) {
      for (std::size_t i = 0; i < grant; ++i) {
        auto slot = arena.slot(i).first(tmpl.wire.size());
        std::memcpy(slot.data(), tmpl.wire.data(), tmpl.wire.size());
        const std::uint16_t id = static_cast<std::uint16_t>(sequence++);
        slot[0] = static_cast<std::uint8_t>(id >> 8);
        slot[1] = static_cast<std::uint8_t>(id & 0xff);
        if (tmpl.ecs_offset != 0) {
          const std::uint32_t source = spoof.next().value();
          slot[tmpl.ecs_offset] = static_cast<std::uint8_t>(source >> 24);
          slot[tmpl.ecs_offset + 1] = static_cast<std::uint8_t>(source >> 16);
          slot[tmpl.ecs_offset + 2] = static_cast<std::uint8_t>(source >> 8);
          slot[tmpl.ecs_offset + 3] = static_cast<std::uint8_t>(source);
        }
        out[i] = Datagram{config.targets[target_rr % config.targets.size()],
                          slot};
        ++target_rr;
        if (in_flight[id] >= 0) ++tally.lost;  // overwritten unanswered
        in_flight[id] = t;
      }
      const std::size_t accepted = socket.send_batch({out.data(), grant});
      tally.sent += accepted;
      tally.send_shortfall += grant - accepted;
      // Tokens for refused sends are gone; the shortfall counter reports
      // the kernel-side clamp explicitly rather than re-crediting.
      for (std::size_t i = accepted; i < grant; ++i) {
        const std::uint16_t id = static_cast<std::uint16_t>(
            sequence - grant + i);
        in_flight[id] = -1;
      }
    }
    const std::size_t drained = drain(now_ns(epoch));
    if (grant == 0 && drained == 0) {
      const std::int64_t wait = std::min<std::int64_t>(
          bucket.ns_until_token(), 200'000 /* 200us */);
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::max<std::int64_t>(wait, 10'000)));
    }
  }

  // Post-deadline: collect stragglers.
  while (now_ns(epoch) < drain_ns) {
    if (drain(now_ns(epoch)) == 0) {
      socket.wait_readable(/*timeout_ms=*/1);
    }
  }
  for (const std::int64_t slot : in_flight) {
    if (slot >= 0) ++tally.lost;
  }
}

}  // namespace

double histogram_quantile(const util::FixedBinHistogram& hist, double q) {
  const std::uint64_t total = hist.total();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < hist.bin_count(); ++i) {
    const std::uint64_t count = hist.bin(i);
    if (count == 0) continue;
    if (static_cast<double>(cumulative + count) >= target) {
      const double inside =
          count == 0 ? 0.0
                     : (target - static_cast<double>(cumulative)) /
                           static_cast<double>(count);
      return hist.bin_lo(i) + hist.bin_width() * std::clamp(inside, 0.0, 1.0);
    }
    cumulative += count;
  }
  return hist.bin_lo(hist.bin_count() - 1) + hist.bin_width();
}

void GeneratorReport::record_into(obs::MetricsRegistry& metrics) const {
  metrics.counter("netio.sent").add(sent);
  metrics.counter("netio.received").add(received);
  metrics.counter("netio.answered").add(answered);
  metrics.counter("netio.truncated").add(truncated);
  metrics.counter("netio.lost").add(lost);
  metrics.gauge("netio.answered_fraction").set(answered_fraction);
  metrics.gauge("netio.achieved_qps").set(achieved_qps);
  metrics.gauge("netio.requested_qps").set(requested_qps);
  obs::Histogram& rtt = metrics.histogram(
      "netio.rtt_ms", {}, rtt_ms.bin_width(), rtt_ms.bin_count());
  for (std::size_t i = 0; i < rtt_ms.bin_count(); ++i) {
    if (rtt_ms.bin(i) > 0) {
      rtt.observe(rtt_ms.bin_lo(i) + rtt_ms.bin_width() / 2, rtt_ms.bin(i));
    }
  }
}

LoadGenerator::LoadGenerator(GeneratorConfig config)
    : config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
}

GeneratorReport LoadGenerator::run(std::string* error) {
  GeneratorReport report;
  report.rtt_ms = util::FixedBinHistogram(config_.rtt_bin_ms,
                                          config_.rtt_bins);
  if (config_.targets.empty()) {
    if (error != nullptr) *error = "no targets configured";
    return report;
  }
  const QueryTemplate tmpl = build_template(config_);
  if (!tmpl.ok) {
    if (error != nullptr) *error = tmpl.error;
    return report;
  }

  std::vector<WorkerTally> tallies;
  tallies.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) tallies.emplace_back(config_);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    threads.emplace_back(worker_main, std::cref(config_), std::cref(tmpl), i,
                         std::ref(tallies[static_cast<std::size_t>(i)]));
  }
  for (std::thread& t : threads) t.join();

  for (const WorkerTally& tally : tallies) {
    if (!tally.error.empty() && error != nullptr && error->empty()) {
      *error = tally.error;
    }
    report.sent += tally.sent;
    report.received += tally.received;
    report.answered += tally.answered;
    report.truncated += tally.truncated;
    report.unmatched += tally.unmatched;
    report.lost += tally.lost;
    report.send_shortfall += tally.send_shortfall;
    report.rtt_ms.merge(tally.rtt_ms);
  }
  report.duration_s = config_.duration_s;
  report.requested_qps = config_.envelope.mean_qps(config_.duration_s);
  report.achieved_qps =
      config_.duration_s > 0
          ? static_cast<double>(report.sent) / config_.duration_s
          : 0.0;
  report.answered_fraction =
      report.sent > 0
          ? static_cast<double>(report.answered) /
                static_cast<double>(report.sent)
          : 0.0;
  report.rtt_p50_ms = histogram_quantile(report.rtt_ms, 0.50);
  report.rtt_p90_ms = histogram_quantile(report.rtt_ms, 0.90);
  report.rtt_p99_ms = histogram_quantile(report.rtt_ms, 0.99);
  return report;
}

}  // namespace rootstress::netio
