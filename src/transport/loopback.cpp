#include "transport/loopback.hpp"

#include <string>
#include <utility>

namespace mns::transport {

std::vector<std::unique_ptr<SocketTransport>> make_loopback_cluster(
    const Graph& graph, int ranks, SocketTransportConfig config,
    const FaultConfig& faults) {
  if (ranks < 1)
    throw TransportError("make_loopback_cluster: ranks must be >= 1");
  std::vector<std::unique_ptr<UdpTransport>> sockets;
  std::vector<PeerAddress> peers;
  sockets.reserve(static_cast<std::size_t>(ranks));
  peers.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    sockets.push_back(std::make_unique<UdpTransport>("127.0.0.1", 0));
    peers.push_back(PeerAddress{"127.0.0.1", sockets.back()->port()});
  }
  std::vector<std::unique_ptr<SocketTransport>> cluster;
  cluster.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    sockets[static_cast<std::size_t>(r)]->set_peers(peers);
    std::unique_ptr<DatagramTransport> net =
        std::move(sockets[static_cast<std::size_t>(r)]);
    if (faults.active()) {
      FaultConfig per_rank = faults;
      per_rank.seed = fault_seed_for_rank(faults.seed, r);
      net = std::make_unique<FaultInjectingTransport>(std::move(net),
                                                      per_rank);
    }
    SocketTransportConfig c = config;
    c.rank = r;
    c.ranks = ranks;
    cluster.push_back(
        std::make_unique<SocketTransport>(graph, c, std::move(net)));
  }
  return cluster;
}

}  // namespace mns::transport
