// transport::Transport — the pluggable message-delivery seam of the CONGEST
// round engine (DESIGN.md §11 "Transport layer").
//
// congest::Simulator::finish_round() merges the round's sends into ONE
// canonical SoA batch (destination, packed directed slot, payload) in the
// deterministic merge order that every parity test pins (DESIGN.md §7). A
// Transport observes that batch at the round boundary — after the merge,
// before the inbox scatter — and is allowed to do exactly two things:
//
//   1. block until the round's traffic is COMPLETE at this endpoint, and
//   2. overwrite the payload bytes of deliveries this endpoint receives
//      authoritatively from a remote peer.
//
// It may never add, remove, or reorder entries: the batch's shape IS the
// bit-identical rounds/messages/inbox contract, and a transport that
// preserved anything less would change measured results. The in-process
// implementation is therefore a no-op; the socket implementation
// (socket_transport.hpp) ships cut-edge entries between OS processes with
// sequence-numbered acked delivery and substitutes the received bytes.
//
// Execution model (v1, documented in DESIGN.md §11): every rank runs the
// SAME deterministic lock-step computation over the full graph — replicated
// state machines — while message delivery across the vertex-range partition
// boundary is authoritative: a cut-edge payload delivered to a vertex this
// rank owns is taken FROM THE WIRE, not from local computation, so the
// reliability layer is load-bearing for every owned inbox. Divergence
// between replicas surfaces as a slot-mismatch TransportError at the next
// round barrier.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "congest/simulator.hpp"
#include "graph/types.hpp"

namespace mns::transport {

/// Any transport-layer failure: peer divergence, malformed protocol state,
/// a stalled link past its no-progress deadline, socket errors.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One finished round's canonical in-flight traffic, exactly as the
/// simulator merged it (DESIGN.md §9 wire format: packed directed slot
/// `2e + side` + 16-byte payload, SoA). Spans alias the simulator's round
/// buffers and are valid only for the duration of the exchange() call.
struct RoundTraffic {
  /// The simulator's round counter AFTER this round was counted (1-based).
  long long round = 0;
  std::span<const VertexId> to;
  std::span<const std::uint32_t> slot;
  /// Mutable: an authoritative receiver substitutes wire bytes here.
  std::span<congest::Message> payload;

  [[nodiscard]] std::size_t size() const noexcept { return to.size(); }
};

/// Counters a transport accumulates over its lifetime. The starred fields
/// are DETERMINISTIC given the run (they count canonical traffic);
/// everything else depends on timing/faults and must be masked volatile by
/// diff tooling (mnsctl's volatile-key list).
struct TransportStats {
  long long rounds_exchanged = 0;  ///< * exchange() calls (== rounds fenced)
  long long wire_records = 0;      ///< * unique cut-edge records sent
  long long datagrams_sent = 0;    ///< incl. retransmits + acks
  long long datagrams_received = 0;
  long long acks_sent = 0;         ///< standalone ACKs (others piggyback)
  long long retransmits = 0;       ///< timed-out packets resent
  /// Datagrams dropped unread: bad magic or shape, a foreign or own
  /// from_rank, a sequence number at or past the receive window, or an ACK
  /// of a packet never sent.
  long long datagrams_rejected = 0;
  long long faults_dropped = 0;    ///< injected by FaultInjectingTransport
  long long faults_duplicated = 0;
  long long faults_held = 0;       ///< delayed/reordered datagrams
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Round barrier: returns once every payload in `traffic` is final at
  /// this endpoint. Called exactly once per Simulator::finish_round(), in
  /// round order, including for rounds with empty traffic (the barrier is
  /// what keeps distributed ranks lock-step). Throws TransportError on
  /// divergence or delivery failure; the round is then poisoned and the
  /// simulator must not be reused.
  virtual void exchange(const RoundTraffic& traffic) = 0;

  [[nodiscard]] virtual TransportStats stats() const { return {}; }
};

/// Today's sharded SoA delivery path behind the interface: everything is
/// already local, so the exchange is complete the moment the simulator's
/// deterministic merge finished. Byte-for-byte identical to running with no
/// transport installed (pinned by tests/test_transport.cpp); exists so code
/// can be written against Transport unconditionally.
class InProcessTransport final : public Transport {
 public:
  void exchange(const RoundTraffic& traffic) override {
    stats_.rounds_exchanged += 1;
    (void)traffic;
  }
  [[nodiscard]] TransportStats stats() const override { return stats_; }

 private:
  TransportStats stats_;
};

}  // namespace mns::transport
