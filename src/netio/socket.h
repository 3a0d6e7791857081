// Batched UDP sockets for the wire-I/O backend.
//
// One syscall per packet caps a load generator long before the NIC does;
// dnstress-style tools batch with sendmmsg/recvmmsg and so do we. The
// UdpSocket wrapper exposes exactly the two operations the hot loops
// need — send a batch of datagrams, receive a batch into arena slots —
// with the Linux multi-message syscalls when available and a portable
// sendto/recvfrom loop everywhere else (also selectable at runtime, so
// tests and benches exercise both paths on the same box).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "net/ipv4.h"

namespace rootstress::netio {

/// One datagram in a batch. `payload` points into caller-owned storage
/// (normally a PacketArena slot); on receive the socket layer shrinks it
/// to the bytes actually read.
struct Datagram {
  net::Endpoint peer{};
  std::span<std::uint8_t> payload{};
};

/// How batches hit the kernel.
enum class BatchMode : std::uint8_t {
  kAuto,     ///< syscall batching where the platform has it, else portable
  kSyscall,  ///< force sendmmsg/recvmmsg (open() fails where unsupported)
  kPortable, ///< force the single-syscall-per-packet fallback
};

const char* to_string(BatchMode mode) noexcept;

/// RAII nonblocking UDP socket with batch send/receive.
class UdpSocket {
 public:
  UdpSocket() noexcept = default;
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Opens a nonblocking IPv4 UDP socket; on failure returns an invalid
  /// socket and stores a description in `error` when non-null.
  static UdpSocket open(BatchMode mode = BatchMode::kAuto,
                        std::string* error = nullptr);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  BatchMode mode() const noexcept { return mode_; }

  /// True when this build/platform has sendmmsg/recvmmsg.
  static bool syscall_batch_supported() noexcept;

  /// Binds to `local` (port 0 = kernel-assigned); `local_endpoint()`
  /// reports the actual address afterwards.
  bool bind(const net::Endpoint& local, std::string* error = nullptr);
  net::Endpoint local_endpoint() const noexcept;

  /// Requests socket buffer sizes (best effort).
  void set_buffer_bytes(int bytes) noexcept;

  /// The buffer size the wire server and generator request: 2 MiB.
  static constexpr int kBufferBytes = 1 << 21;

  /// Sends up to `batch.size()` datagrams; returns the number accepted by
  /// the kernel (short on EAGAIN — callers retry the tail next tick).
  std::size_t send_batch(std::span<const Datagram> batch) noexcept;

  /// Receives up to `batch.size()` datagrams into the provided payload
  /// capacities, shrinking each filled `payload` to its read size and
  /// setting `peer`. Returns the number received (0 when nothing ready).
  std::size_t recv_batch(std::span<Datagram> batch) noexcept;

  /// Blocks until the socket is readable or `timeout_ms` passes. Returns
  /// true when readable.
  bool wait_readable(int timeout_ms) noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
  BatchMode mode_ = BatchMode::kAuto;
};

}  // namespace rootstress::netio
