#include "transport/fault_injection.hpp"

#include <utility>

#include "transport/transport.hpp"

namespace mns::transport {

std::uint64_t fault_seed_for_rank(std::uint64_t seed, int rank) {
  const std::uint64_t s =
      seed ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(rank) + 1));
  return s == 0 ? 1 : s;
}

FaultInjectingTransport::FaultInjectingTransport(
    std::unique_ptr<DatagramTransport> inner, FaultConfig config)
    : inner_(std::move(inner)), config_(config), state_(config.seed) {
  if (inner_ == nullptr)
    throw TransportError("FaultInjectingTransport: null inner transport");
  if (config.seed == 0)
    throw TransportError(
        "FaultInjectingTransport: seed 0 would degenerate the splitmix64 "
        "stream");
}

std::uint64_t FaultInjectingTransport::next_u64() {
  // splitmix64 (public-domain constants): deterministic, stateless but for
  // the 64-bit counter, and good enough for Bernoulli fault draws.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double FaultInjectingTransport::next_unit() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

void FaultInjectingTransport::tick() {
  ++ops_;
  while (!held_.empty() && held_.front().release_at <= ops_) {
    Held h = std::move(held_.front());
    held_.pop_front();
    inner_->send(h.to_rank, h.bytes);
  }
}

void FaultInjectingTransport::send(int to_rank,
                                   std::span<const std::uint8_t> datagram) {
  tick();
  const double fate = next_unit();
  if (fate < config_.drop_rate) {
    ++dropped_;
    return;
  }
  if (fate < config_.drop_rate + config_.reorder_rate) {
    // Held datagrams overtake nothing themselves but are OVERTAKEN by every
    // datagram sent while they wait — release after a seeded number of
    // later operations.
    const std::uint64_t hold =
        1 + next_u64() % static_cast<std::uint64_t>(kMaxHoldOps);
    held_.push_back(Held{to_rank,
                         std::vector<std::uint8_t>(datagram.begin(),
                                                   datagram.end()),
                         ops_ + hold});
    ++held_count_;
    return;
  }
  inner_->send(to_rank, datagram);
  if (next_unit() < config_.dup_rate) {
    ++duplicated_;
    inner_->send(to_rank, datagram);
  }
}

bool FaultInjectingTransport::receive(std::vector<std::uint8_t>& out,
                                      int timeout_ms) {
  tick();
  return inner_->receive(out, timeout_ms);
}

}  // namespace mns::transport
