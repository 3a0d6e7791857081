#include "netio/server.h"

#include <chrono>
#include <cstring>
#include <vector>

#include "dns/chaos.h"
#include "dns/edns.h"
#include "dns/wire.h"
#include "netio/arena.h"

namespace rootstress::netio {
namespace {

/// Copies `bytes` into `out`; returns the size (0 when it cannot fit,
/// which cannot happen for arena-sized outputs and <= 4096B responses).
std::size_t emit(const std::vector<std::uint8_t>& bytes,
                 std::span<std::uint8_t> out) noexcept {
  if (bytes.size() > out.size()) return 0;
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return bytes.size();
}

}  // namespace

WireServer::WireServer(WireServerConfig config)
    : config_(std::move(config)),
      root_(config_.letter, config_.site, /*server_index=*/1, config_.rrl),
      admission_(config_.capacity_qps, config_.queue_burst) {}

WireServer::~WireServer() { stop(); }

std::size_t WireServer::handle_datagram(std::span<const std::uint8_t> wire,
                                        net::Ipv4Addr source, net::SimTime now,
                                        std::span<std::uint8_t> out) {
  stats_.received.fetch_add(1, std::memory_order_relaxed);

  // Admission gate: the modeled service capacity, applied before any
  // protocol work (an overloaded server sheds load it never parses).
  if (config_.capacity_qps > 0 &&
      admission_.grab(1, now.ms * 1'000'000) == 0) {
    stats_.dropped_capacity.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

  const auto query = dns::decode(wire);
  if (!query.has_value()) {
    stats_.dropped_malformed.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

  const bool referral_path =
      !query->header.qr && !query->questions.empty() &&
      query->questions.front().qclass == dns::RrClass::kIn &&
      !dns::is_chaos_query(*query);
  if (!referral_path) {
    // CHAOS diagnostics, FORMERR/REFUSED edges: low-rate paths, served
    // verbatim through the protocol model.
    const auto response = root_.answer(*query, source, now);
    if (!response.has_value()) return 0;
    if (dns::is_chaos_query(*query)) {
      stats_.chaos.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.answered.fetch_add(1, std::memory_order_relaxed);
    return emit(dns::encode(*response), out);
  }

  // The wire fast path mirrors RootServer::answer's IN branch, with the
  // referral build+encode replaced by the packet cache (server_test pins
  // the equivalence against the model).
  const dns::Question& q = query->questions.front();
  net::Ipv4Addr rrl_source = source;
  if (config_.rrl_keys_on_client_subnet) {
    if (const auto ecs = dns::client_subnet(*query)) rrl_source = ecs->addr;
  }
  switch (root_.rrl().decide(rrl_source, q.qname.hash(), now)) {
    case dns::RrlAction::kDrop:
      stats_.dropped_rrl.fetch_add(1, std::memory_order_relaxed);
      return 0;
    case dns::RrlAction::kSlip: {
      stats_.slipped.fetch_add(1, std::memory_order_relaxed);
      dns::Message slip =
          dns::Message::response_to(*query, dns::Rcode::kNoError);
      slip.header.tc = true;  // invite retry over TCP
      if (dns::edns_info(*query).has_value()) dns::add_edns(slip, 4096);
      return emit(dns::encode(slip), out);
    }
    case dns::RrlAction::kRespond:
      break;
  }

  stats_.answered.fetch_add(1, std::memory_order_relaxed);
  if (!config_.cache_responses) {
    return emit(dns::encode(root_.referral_response(*query)), out);
  }
  // Cache key: qname + qtype + the client's effective UDP limit + EDNS
  // presence (an OPT echo changes the bytes even at equal limits).
  const bool edns = dns::edns_info(*query).has_value();
  std::string key = q.qname.to_string();
  key += '|';
  key += std::to_string(static_cast<int>(q.qtype));
  key += '|';
  key += std::to_string(dns::max_udp_response_size(*query));
  key += edns ? "|e" : "|p";
  auto it = packet_cache_.find(key);
  if (it == packet_cache_.end()) {
    stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    if (packet_cache_.size() >= kPacketCacheEntries) {
      return emit(dns::encode(root_.referral_response(*query)), out);
    }
    it = packet_cache_
             .emplace(std::move(key),
                      dns::encode(root_.referral_response(*query)))
             .first;
  } else {
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t size = emit(it->second, out);
  if (size >= 2) {
    // Patch the cached template's message id to this query's.
    out[0] = static_cast<std::uint8_t>(query->header.id >> 8);
    out[1] = static_cast<std::uint8_t>(query->header.id & 0xff);
  }
  return size;
}

bool WireServer::start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) return true;
  socket_ = UdpSocket::open(config_.batch_mode, error);
  if (!socket_.valid()) return false;
  socket_.set_buffer_bytes(UdpSocket::kBufferBytes);
  if (!socket_.bind(config_.listen, error)) {
    socket_.close();
    return false;
  }
  endpoint_ = socket_.local_endpoint();
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void WireServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  socket_.close();
}

void WireServer::serve_loop() {
  const std::size_t batch = config_.batch == 0 ? 1 : config_.batch;
  // Slots [0, batch) receive queries; [batch, 2*batch) hold responses.
  PacketArena arena(batch * 2);
  std::vector<Datagram> in(batch);
  std::vector<Datagram> replies;
  replies.reserve(batch);
  const auto epoch = std::chrono::steady_clock::now();

  while (running_.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < batch; ++i) {
      in[i].payload = arena.slot(i);
    }
    const std::size_t received = socket_.recv_batch({in.data(), batch});
    if (received == 0) {
      socket_.wait_readable(/*timeout_ms=*/5);
      continue;
    }
    const auto now_wall = std::chrono::steady_clock::now();
    const net::SimTime now(
        std::chrono::duration_cast<std::chrono::milliseconds>(now_wall - epoch)
            .count());
    replies.clear();
    for (std::size_t i = 0; i < received; ++i) {
      const std::size_t size = handle_datagram(
          in[i].payload, in[i].peer.addr, now, arena.slot(batch + i));
      if (size == 0) continue;
      replies.push_back(
          Datagram{in[i].peer, arena.slot(batch + i).first(size)});
    }
    if (!replies.empty()) {
      socket_.send_batch({replies.data(), replies.size()});
    }
  }
}

}  // namespace rootstress::netio
