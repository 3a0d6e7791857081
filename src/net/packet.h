// Packet size accounting shared by the traffic and RSSAC layers.
#pragma once

#include <cstddef>

namespace rootstress::net {

/// IPv4 (20) + UDP (8) header bytes. The paper adds another 12 bytes of
/// "DNS header" in its 40-byte figure; we follow RSSAC-002 and count the
/// DNS header as part of the DNS payload, so wire size = payload + 28.
inline constexpr std::size_t kIpUdpHeaderBytes = 28;

/// Total on-the-wire bytes for a DNS payload of `payload` bytes over
/// IPv4/UDP.
constexpr std::size_t wire_bytes(std::size_t payload) noexcept {
  return payload + kIpUdpHeaderBytes;
}

}  // namespace rootstress::net
