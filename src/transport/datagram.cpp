#include "transport/datagram.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>

#include "transport/transport.hpp"

namespace mns::transport {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// The largest SO_RCVBUF an unprivileged socket may request; 0 if unknown.
std::size_t rmem_max() {
  std::ifstream in("/proc/sys/net/core/rmem_max");
  std::size_t bytes = 0;
  return in >> bytes ? bytes : 0;
}

}  // namespace

UdpTransport::UdpTransport(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw TransportError(errno_text("UdpTransport: socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw TransportError("UdpTransport: bad host '" + host + "'");
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string msg = errno_text("UdpTransport: bind");
    ::close(fd_);
    fd_ = -1;
    throw TransportError(msg);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string msg = errno_text("UdpTransport: getsockname");
    ::close(fd_);
    fd_ = -1;
    throw TransportError(msg);
  }
  port_ = ntohs(bound.sin_port);
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::set_peers(const std::vector<PeerAddress>& peers) {
  peers_.clear();
  peers_.reserve(peers.size());
  for (const PeerAddress& p : peers) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(p.port);
    if (::inet_pton(AF_INET, p.host.c_str(), &addr.sin_addr) != 1)
      throw TransportError("UdpTransport: bad peer host '" + p.host + "'");
    std::array<std::uint8_t, 16> raw{};
    static_assert(sizeof(sockaddr_in) <= 16);
    std::memcpy(raw.data(), &addr, sizeof addr);
    peers_.push_back(raw);
  }
}

void UdpTransport::send(int to_rank, std::span<const std::uint8_t> datagram) {
  if (to_rank < 0 || static_cast<std::size_t>(to_rank) >= peers_.size())
    throw TransportError("UdpTransport: send to unknown rank " +
                         std::to_string(to_rank));
  if (datagram.size() > kMaxDatagramBytes)
    throw TransportError("UdpTransport: datagram exceeds kMaxDatagramBytes");
  sockaddr_in addr{};
  std::memcpy(&addr, peers_[static_cast<std::size_t>(to_rank)].data(),
              sizeof addr);
  // EAGAIN (a full loopback socket buffer) is treated as a drop: the
  // reliability layer above retransmits, which is exactly the fair-lossy
  // contract DatagramTransport promises.
  const ssize_t sent =
      ::sendto(fd_, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
      errno != ENOBUFS && errno != ECONNREFUSED)
    throw TransportError(errno_text("UdpTransport: sendto"));
}

void UdpTransport::reserve_receive(std::size_t datagrams) {
  std::size_t want = datagrams * kDatagramTruesize;
  if (const std::size_t cap = rmem_max(); cap > 0) want = std::min(want, cap);
  want = std::min<std::size_t>(want, std::numeric_limits<int>::max());
  if (want <= receive_buffer_bytes()) return;
  // Best effort: the kernel clamps the request itself, and a buffer that
  // stays small only costs retransmits.
  const int bytes = static_cast<int>(want);
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
}

std::size_t UdpTransport::receive_buffer_bytes() const {
  int bytes = 0;
  socklen_t len = sizeof bytes;
  if (::getsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, &len) != 0 || bytes < 0)
    return 0;
  return static_cast<std::size_t>(bytes);
}

bool UdpTransport::receive(std::vector<std::uint8_t>& out, int timeout_ms) {
  // Try the socket before polling it: a datagram that is already queued
  // costs one syscall, and a drain (timeout 0) ends at the first EAGAIN.
  out.resize(kMaxDatagramBytes);
  bool polled = false;
  for (;;) {
    const ssize_t n = ::recvfrom(fd_, out.data(), out.size(), MSG_DONTWAIT,
                                 nullptr, nullptr);
    if (n >= 0) {
      out.resize(static_cast<std::size_t>(n));
      return true;
    }
    if (errno == EINTR || errno == ECONNREFUSED) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      throw TransportError(errno_text("UdpTransport: recvfrom"));
    if (timeout_ms == 0 || polled) return false;
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw TransportError(errno_text("UdpTransport: poll"));
    }
    if (ready == 0) return false;
    polled = true;
  }
}

}  // namespace mns::transport
