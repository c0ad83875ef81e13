// transport::DatagramTransport — the unreliable, rank-addressed datagram
// layer under SocketTransport (DESIGN.md §11).
//
// The split mirrors the classic reliable-link construction: SocketTransport
// implements sequence numbers, acks, retransmission and round fences ON TOP
// of a fair-lossy datagram service, and the datagram service itself is
// swappable — UdpTransport speaks real UDP sockets, and
// FaultInjectingTransport (fault_injection.hpp) decorates any
// DatagramTransport with seeded drop/duplicate/reorder/delay so tests can
// prove the reliability layer converges under adversarial loss.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mns::transport {

/// Best-effort datagram delivery between a fixed set of ranks. Datagrams
/// may be dropped, duplicated, reordered or delayed; they are never
/// corrupted in flight (UDP checksums / in-memory queues). Not thread-safe:
/// one owner drives send and receive (SocketTransport progresses only
/// inside exchange(), so the lock-step protocol needs no background I/O
/// thread).
class DatagramTransport {
 public:
  virtual ~DatagramTransport() = default;

  /// Fire-and-forget send of one datagram to `to_rank`.
  virtual void send(int to_rank, std::span<const std::uint8_t> datagram) = 0;

  /// Blocks up to `timeout_ms` for one datagram; false on timeout. The
  /// sender's identity travels inside the packet header, not the transport.
  virtual bool receive(std::vector<std::uint8_t>& out, int timeout_ms) = 0;

  /// Asks for room to queue `datagrams` full-size datagrams that arrive
  /// while the owner is not receiving (SocketTransport: `window` from every
  /// peer). A hint; the default has no queue to size.
  virtual void reserve_receive(std::size_t datagrams) { (void)datagrams; }
};

/// One peer's UDP address.
struct PeerAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Real UDP (AF_INET, SOCK_DGRAM). Binding to port 0 lets the kernel pick a
/// free port — the multi-process driver binds every rank's socket BEFORE
/// forking, so the full port table is known to all ranks with no rendezvous
/// service. Maximum datagram size is bounded by kMaxDatagramBytes, kept
/// under the loopback/ethernet MTU so packets never fragment.
class UdpTransport final : public DatagramTransport {
 public:
  static constexpr std::size_t kMaxDatagramBytes = 1400;
  /// Estimated kernel charge (truesize) for one queued full-size datagram:
  /// the payload in a 4 KiB page plus the socket buffer's bookkeeping, as a
  /// page-backed NIC receive path charges it. Loopback charges less (2.25
  /// KiB on x86-64 Linux 6), so the estimate errs toward room.
  static constexpr std::size_t kDatagramTruesize = 4608;

  /// Binds to host:port (port 0 = ephemeral). Throws TransportError on
  /// socket failure.
  explicit UdpTransport(const std::string& host = "127.0.0.1",
                        std::uint16_t port = 0);
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;
  ~UdpTransport() override;

  /// The locally bound port (resolved after an ephemeral bind).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Installs the rank -> address table (index = rank). Must be called
  /// before the first send; entries must outnumber every to_rank used.
  void set_peers(const std::vector<PeerAddress>& peers);

  void send(int to_rank, std::span<const std::uint8_t> datagram) override;
  bool receive(std::vector<std::uint8_t>& out, int timeout_ms) override;

  /// Requests SO_RCVBUF room for `datagrams` * kDatagramTruesize bytes,
  /// capped at /proc/sys/net/core/rmem_max (read, never raised). Never
  /// shrinks the buffer; a refused request leaves it as it was.
  void reserve_receive(std::size_t datagrams) override;

  /// The receive buffer as the kernel reports it (getsockopt SO_RCVBUF;
  /// Linux reports twice what was requested, for its bookkeeping).
  [[nodiscard]] std::size_t receive_buffer_bytes() const;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  // Opaque storage for sockaddr_in per peer (kept POD-copied to avoid
  // leaking <netinet/in.h> into the header).
  std::vector<std::array<std::uint8_t, 16>> peers_;
};

}  // namespace mns::transport
