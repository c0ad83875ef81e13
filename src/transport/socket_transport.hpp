// transport::SocketTransport — sequence-numbered, acknowledged,
// retransmitting datagram delivery for the CONGEST round engine
// (DESIGN.md §11 "Transport layer").
//
// Reliability discipline (per ordered peer pair, both directions):
//   * every DATA / FENCE / CTRL packet carries a link-local sequence number
//     (seq 1, 2, ...) and a cumulative ACK of the reverse link; the
//     receiver delivers strictly in order and buffers out-of-order arrivals
//     that fall inside the window (anything further ahead is dropped);
//   * the sender keeps at most `window` unacked packets in flight (excess
//     is queued and pumped as ACKs arrive) and retransmits a packet whose
//     ACK is overdue, with exponential backoff from kInitialTimeoutMs to
//     max_timeout_ms;
//   * ACKs ride on the next reliable packet to the peer. A standalone ACK
//     goes out only for a duplicate that no reliable packet has acked yet,
//     for a CTRL packet, and when half a window of received packets is
//     unacked; duplicates are never re-delivered.
//
// Round barrier: exchange(R) walks the canonical batch once, writes this
// rank's authoritative cut-edge records for each peer into that peer's
// open packet, and closes every peer's last packet of the round as a
// FENCE(R) — also when it holds no records, so a clean round costs one
// datagram per peer and the fence doubles as the lock-step barrier.
// Because links are reliable and ordered, receiving FENCE(R) from a peer
// proves all of that peer's round-R records arrived. Both replicas
// enumerate the same batch, so the records from peer p arrive in the batch
// order of this rank's expected entries from p and are matched by one
// cursor per peer: a record for another slot, a record past the last
// expected entry, a fence before the last one, or traffic stamped with
// another round is replica divergence and throws TransportError.
//
// The vertex-range partition: rank r owns the contiguous range
// [n*r/ranks, n*(r+1)/ranks). A message is wire traffic iff its sender's
// owner differs from its receiver's owner; the sender's owner transmits,
// the receiver's owner substitutes the wire bytes into its inbox buffer
// (transport.hpp documents the replicated-computation model this slots
// into). Both owners of every directed slot are tabulated once, at
// construction.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "transport/datagram.hpp"
#include "transport/transport.hpp"

namespace mns::transport {

/// First retransmit of a packet fires after this long without an ACK ...
inline constexpr int kInitialTimeoutMs = 2;

struct SocketTransportConfig {
  int rank = 0;
  int ranks = 1;
  /// Per-peer unacked-packet cap; excess packets queue until ACKs arrive.
  /// A received packet this far or further ahead of delivery is dropped.
  int window = 64;
  /// ... doubling per retransmit (from kInitialTimeoutMs) up to this
  /// ceiling.
  int max_timeout_ms = 256;
  /// No datagram received for this long while a barrier is incomplete =>
  /// the peer is gone; throw instead of wedging the round loop.
  int stall_timeout_ms = 30000;
};

class SocketTransport final : public Transport {
 public:
  /// Largest cluster: packets carry from_rank, and the routing table each
  /// owner rank, in one byte.
  static constexpr int kMaxRanks = 256;

  /// `graph` is read once, to tabulate the owners of every packed slot's
  /// endpoints, and must equal every peer's graph (replicated construction
  /// from one seed/snapshot). Throws TransportError for more than kMaxRanks
  /// ranks, a rank outside [0, ranks), or a bad window/timeout setting.
  SocketTransport(const Graph& graph, SocketTransportConfig config,
                  std::unique_ptr<DatagramTransport> net);
  ~SocketTransport() override;

  void exchange(const RoundTraffic& traffic) override;
  /// Includes the faults_* counters when the datagram layer is a
  /// FaultInjectingTransport.
  [[nodiscard]] TransportStats stats() const override;

  [[nodiscard]] int rank() const noexcept { return config_.rank; }
  [[nodiscard]] int ranks() const noexcept { return config_.ranks; }
  /// The rank owning vertex v under the contiguous range partition.
  [[nodiscard]] int owner(VertexId v) const noexcept;

  /// Reliable small-value all-gather over the same links, used OUTSIDE the
  /// round loop: the pre-solve handshake, RunReport digest aggregation at
  /// rank 0, and the shutdown barrier. Tags must be distinct per gather and
  /// issued in the same order on every rank. Returns all ranks' values,
  /// indexed by rank.
  std::vector<std::uint64_t> all_gather(std::uint64_t tag,
                                        std::uint64_t value);

  /// Post-barrier linger: keeps re-ACKing peer retransmits until the link
  /// has been silent for `grace_ms`, so a peer whose final ACK was lost can
  /// finish instead of stalling. Call after the last all_gather, before
  /// destruction.
  void shutdown(int grace_ms = 100);

 private:
  using Bytes = std::vector<std::uint8_t>;

  struct SentPacket {
    std::uint64_t seq;
    Bytes bytes;
    std::int64_t deadline_ms;  ///< steady-clock ms of the next retransmit
    int timeout_ms;
  };
  /// One delivered (in-order) reliable packet awaiting consumption: the
  /// datagram exactly as received, header included.
  struct Inbound {
    std::uint8_t type;
    std::uint16_t count;
    std::int64_t round;  ///< DATA/FENCE round; CTRL tag
    Bytes bytes;
  };
  struct Link {
    // send side
    std::uint64_t next_seq = 1;
    std::deque<SentPacket> inflight;
    std::deque<SentPacket> queued;  ///< built + seq'd, awaiting window space
    Bytes open;  ///< packet being filled: header space, then records
    std::uint16_t open_count = 0;
    // receive side
    std::uint64_t next_expected = 1;
    std::uint64_t ack_told = 0;      ///< highest ACK sent, in any packet
    std::uint64_t ack_reliable = 0;  ///< highest ACK on a reliable packet
    bool ack_due = false;            ///< owe a standalone ACK this drain
    std::map<std::uint64_t, Inbound> out_of_order;  ///< < window entries
    std::deque<Inbound> ready;  ///< in-order, not yet consumed
    // the round being matched
    std::vector<std::uint32_t> expected;  ///< batch indices, batch order
    std::size_t cursor = 0;
    bool fenced = false;
  };
  /// Owner ranks of a directed slot's sender and receiver.
  struct Route {
    std::uint8_t from;
    std::uint8_t to;
  };

  /// Seals `bytes` (header space + `count` records) as the next packet to
  /// `peer` and sends it, or queues it while the window is full.
  void send_reliable(int peer, std::uint8_t type, std::int64_t round,
                     Bytes bytes, std::uint16_t count);
  /// Sends `peer`'s open packet of `round` as `type` and opens a new one.
  void send_open(int peer, std::uint8_t type, std::int64_t round);
  void transmit(int peer, SentPacket& packet);
  void pump(int peer);
  void flush_acks();
  void retransmit_due();
  /// Waits up to the next retransmit deadline for one datagram and folds it
  /// and everything already queued behind it into the link state. Returns
  /// true if anything was received.
  bool poll_once();
  /// Folds the datagram in recv_buf_ into the link state, or rejects it.
  void handle_datagram();
  /// Consumes `peer`'s delivered packets of `traffic`'s round up to its
  /// fence, substituting each record; returns true once the fence is in.
  bool absorb(int peer, const RoundTraffic& traffic);
  [[noreturn]] void diverged(int peer, const std::string& what) const;
  Bytes take_buffer();
  void recycle(Bytes&& bytes);
  [[nodiscard]] std::int64_t now_ms() const;

  SocketTransportConfig config_;
  std::unique_ptr<DatagramTransport> net_;
  long long num_vertices_;
  std::vector<Route> route_;  ///< indexed by packed directed slot
  std::vector<Link> links_;   ///< indexed by rank (self unused)
  Bytes recv_buf_;
  std::vector<Bytes> spare_;  ///< datagram buffers reused across rounds
  std::int64_t last_receipt_ms_ = 0;
  TransportStats stats_;
};

}  // namespace mns::transport
