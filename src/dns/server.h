// A root name-server process: answers IN queries for the root zone and
// CHAOS diagnostics, applying RRL.
//
// This is the "r_i" box of Figure 1: one physical server at one anycast
// site. Load-balancing across servers and capacity modeling live in the
// anycast module; this class is pure protocol behaviour.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dns/message.h"
#include "dns/rrl.h"
#include "net/clock.h"
#include "net/ipv4.h"

namespace rootstress::dns {

/// Per-server protocol statistics, counted by answer(). Plain counters:
/// each server answers from one thread (the netio serve loop or a test);
/// the engine's probing reads only the const chaos_response().
struct ServerStats {
  std::uint64_t queries = 0;
  std::uint64_t responses = 0;
  std::uint64_t chaos_queries = 0;
  std::uint64_t rrl_dropped = 0;
  std::uint64_t rrl_slipped = 0;
  std::uint64_t refused = 0;
};

/// A single root DNS server instance.
class RootServer {
 public:
  /// `letter` is 'A'..'M'; `site` an airport code; `server_index` 1-based.
  RootServer(char letter, std::string site, int server_index,
             RrlConfig rrl = {});

  /// Handles one query; returns the response message, or nullopt when RRL
  /// drops it (slipped responses come back truncated with no answers).
  std::optional<Message> answer(const Message& query, net::Ipv4Addr source,
                                net::SimTime now);

  /// Builds the root-referral response for an IN query without touching
  /// RRL or the stats counters. The wire-I/O server (netio/) uses this to
  /// populate its packet cache: the encoded referral for a given
  /// (qname, EDNS size) is invariant, so the hot path patches the cached
  /// bytes' message id instead of rebuilding 26 records per packet.
  Message referral_response(const Message& query) const {
    return answer_root_referral(query);
  }

  /// Builds the CHAOS hostname.bind reply (this server's identity as a
  /// TXT answer) without touching RRL or the stats counters. answer()
  /// uses it for CHAOS queries; the engine runs each server's reply
  /// through the wire codec once per run with it.
  Message chaos_response(const Message& query) const;

  /// The CHAOS identity string this server embeds in hostname.bind
  /// replies.
  const std::string& identity() const noexcept { return identity_; }

  char letter() const noexcept { return letter_; }
  const std::string& site() const noexcept { return site_; }
  int server_index() const noexcept { return server_index_; }
  const ServerStats& stats() const noexcept { return stats_; }
  ResponseRateLimiter& rrl() noexcept { return rrl_; }

 private:
  Message answer_root_referral(const Message& query) const;

  char letter_;
  std::string site_;
  int server_index_;
  std::string identity_;
  ResponseRateLimiter rrl_;
  ServerStats stats_;
};

}  // namespace rootstress::dns
