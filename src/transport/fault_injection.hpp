// transport::FaultInjectingTransport — a DatagramTransport decorator that
// drops, duplicates, reorders and delays outbound datagrams deterministically
// from a seed (DESIGN.md §11).
//
// Purpose: prove that SocketTransport's seq/ack/retransmit discipline
// converges to IDENTICAL results under adversarial loss — the
// fault-injection tests pin run_reports_identical against the clean run and
// bound the retransmit count. Faults are applied on the SEND side only, so
// each rank's adversary is independent and reproducible from (seed, rank).
//
// Determinism guarantee (the precise statement DESIGN.md §11 makes): the
// fate of the n-th datagram a rank sends is a pure function of the seed and
// n. Retransmission TIMING still depends on the wall clock, so the total
// number of datagrams (and therefore which of them are dropped) varies
// run-to-run — what is deterministic is the fault LAW, and what the tests
// pin is that the delivered RESULTS are bit-identical regardless.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "transport/datagram.hpp"

namespace mns::transport {

/// A held datagram is released after 1..kMaxHoldOps later operations.
inline constexpr int kMaxHoldOps = 4;

struct FaultConfig {
  std::uint64_t seed = 1;
  double drop_rate = 0.0;     ///< P(outbound datagram silently vanishes)
  double dup_rate = 0.0;      ///< P(outbound datagram is sent twice)
  double reorder_rate = 0.0;  ///< P(datagram is held back, then released
                              ///  after 1..kMaxHoldOps later operations —
                              ///  delaying it past its successors)

  [[nodiscard]] bool active() const noexcept {
    return drop_rate > 0.0 || dup_rate > 0.0 || reorder_rate > 0.0;
  }
};

/// Rank `rank`'s fault seed in a cluster faulted from one `seed`: every
/// rank's adversary is decorrelated from the others', and the seed is never
/// 0 (DESIGN.md §11). make_loopback_cluster and `mnsctl dist` both use it,
/// so one --fault-seed drives the same fault laws in each.
[[nodiscard]] std::uint64_t fault_seed_for_rank(std::uint64_t seed, int rank);

class FaultInjectingTransport final : public DatagramTransport {
 public:
  FaultInjectingTransport(std::unique_ptr<DatagramTransport> inner,
                          FaultConfig config);

  void send(int to_rank, std::span<const std::uint8_t> datagram) override;
  bool receive(std::vector<std::uint8_t>& out, int timeout_ms) override;
  void reserve_receive(std::size_t datagrams) override {
    inner_->reserve_receive(datagrams);
  }

  [[nodiscard]] long long dropped() const noexcept { return dropped_; }
  [[nodiscard]] long long duplicated() const noexcept { return duplicated_; }
  [[nodiscard]] long long held() const noexcept { return held_count_; }
  [[nodiscard]] const DatagramTransport& inner() const noexcept {
    return *inner_;
  }
  [[nodiscard]] DatagramTransport& inner() noexcept { return *inner_; }

 private:
  struct Held {
    int to_rank;
    std::vector<std::uint8_t> bytes;
    std::uint64_t release_at;  ///< op counter value that frees it
  };

  /// splitmix64 stream: one draw per decision, seeded once.
  std::uint64_t next_u64();
  double next_unit();
  /// Every send/receive call ticks the op clock and releases due holds.
  void tick();

  std::unique_ptr<DatagramTransport> inner_;
  FaultConfig config_;
  std::uint64_t state_;
  std::uint64_t ops_ = 0;
  std::deque<Held> held_;
  long long dropped_ = 0;
  long long duplicated_ = 0;
  long long held_count_ = 0;
};

}  // namespace mns::transport
