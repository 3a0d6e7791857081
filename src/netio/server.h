// Loopback server-under-test: the dns::RootServer model behind a real
// UDP socket.
//
// The generator needs a default target whose behaviour we can predict:
// this server answers root-referral and CHAOS queries through the
// existing protocol model (dns::RootServer + dns::Rrl) with two wire-path
// additions —
//   * a capacity gate: an admission token bucket at `capacity_qps`
//     (burst = `queue_burst` packets) drops arrivals beyond the modeled
//     service rate, the packet-level analogue of anycast::evaluate_queue
//     saturation loss, which is what makes the closed loop calibratable
//     against the fluid simulator;
//   * a packet cache: the encoded referral for a (qname, EDNS) pair is
//     built once via RootServer::referral_response and re-sent with only
//     the message id patched — the same trick production root servers
//     use, and what keeps a single core comfortably past 50k answers/s.
//     Query names are the sender's choice, so the cache stops growing at
//     kPacketCacheEntries; past that a miss is encoded and sent uncached.
//
// RRL runs on the real packet path. Because loopback traffic cannot
// carry forged IP sources, the server can be told to key RRL on the
// EDNS Client Subnet address the generator's spoof model attaches
// (`rrl_keys_on_client_subnet`), falling back to the wire source.
//
// `handle_datagram` is the whole per-packet path and takes an explicit
// SimTime, so tests drive it with a fixed clock and no sockets; the
// socket loop feeds it wall time mapped to SimTime since start().
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>

#include "dns/rrl.h"
#include "dns/server.h"
#include "net/clock.h"
#include "net/ipv4.h"
#include "netio/pacing.h"
#include "netio/socket.h"

namespace rootstress::netio {

struct WireServerConfig {
  net::Endpoint listen{net::Ipv4Addr(127, 0, 0, 1), 0};  ///< 0 = any port
  char letter = 'K';
  std::string site = "AMS";
  dns::RrlConfig rrl{};
  /// Modeled service rate; arrivals beyond it are dropped at admission.
  /// <= 0 disables the gate (infinite capacity).
  double capacity_qps = 0.0;
  /// Admission bucket depth in packets (absorbs batch bursstiness).
  double queue_burst = 512.0;
  bool rrl_keys_on_client_subnet = true;
  bool cache_responses = true;
  std::size_t batch = 32;
  BatchMode batch_mode = BatchMode::kAuto;
};

/// Wire-path counters (relaxed atomics; the socket thread writes, anyone
/// reads).
struct WireServerStats {
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> answered{0};  ///< full responses sent
  std::atomic<std::uint64_t> chaos{0};
  std::atomic<std::uint64_t> slipped{0};   ///< RRL slip (TC) responses
  std::atomic<std::uint64_t> dropped_rrl{0};
  std::atomic<std::uint64_t> dropped_capacity{0};
  std::atomic<std::uint64_t> dropped_malformed{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
};

class WireServer {
 public:
  /// Packet-cache bound (entries).
  static constexpr std::size_t kPacketCacheEntries = 4096;

  explicit WireServer(WireServerConfig config);
  ~WireServer();
  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Opens + binds the socket and starts the service thread. False (with
  /// `error`) when the socket cannot be set up.
  bool start(std::string* error = nullptr);

  /// Stops the service thread and closes the socket. Idempotent.
  void stop();

  /// The bound address (valid after start()).
  net::Endpoint endpoint() const noexcept { return endpoint_; }

  const WireServerStats& stats() const noexcept { return stats_; }
  const WireServerConfig& config() const noexcept { return config_; }

  /// The protocol model underneath — tests toggle RRL via
  /// root_server().rrl().set_enabled() and read its accounting.
  dns::RootServer& root_server() noexcept { return root_; }

  /// The full per-packet path: admission gate, decode, RRL, answer,
  /// encode into `out`. Returns the response size in bytes, 0 when the
  /// packet is dropped (capacity, RRL drop, malformed). Exposed so tests
  /// exercise the real path with a fixed clock and no sockets; not
  /// thread-safe against a running socket loop.
  std::size_t handle_datagram(std::span<const std::uint8_t> wire,
                              net::Ipv4Addr source, net::SimTime now,
                              std::span<std::uint8_t> out);

 private:
  void serve_loop();

  WireServerConfig config_;
  dns::RootServer root_;
  TokenBucket admission_;
  std::unordered_map<std::string, std::vector<std::uint8_t>> packet_cache_;
  WireServerStats stats_;

  UdpSocket socket_;
  net::Endpoint endpoint_{};
  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace rootstress::netio
