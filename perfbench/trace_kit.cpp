#include "trace_kit.hpp"

#include <cstdio>

#include "io/snapshot.hpp"

namespace perfbench {

void CaptureTransport::exchange(const transport::RoundTraffic& traffic) {
  // The inner transport may substitute payload bytes; capture the final ones.
  if (inner_ != nullptr) inner_->exchange(traffic);
  round_begin_.push_back(slot_.size());
  slot_.insert(slot_.end(), traffic.slot.begin(), traffic.slot.end());
  msg_.insert(msg_.end(), traffic.payload.begin(), traffic.payload.end());
  peak_ = std::max(peak_, static_cast<long long>(traffic.size()));
}

void CaptureTransport::clear() {
  round_begin_.clear();
  slot_.clear();
  msg_.clear();
  peak_ = 0;
}

double CaptureTransport::replay_ms(const Graph& g) const {
  congest::Simulator sim(g);
  std::int64_t checksum = 0;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < round_begin_.size(); ++r) {
    const std::size_t end =
        r + 1 < round_begin_.size() ? round_begin_[r + 1] : slot_.size();
    for (std::size_t i = round_begin_[r]; i < end; ++i) {
      const auto e = static_cast<EdgeId>(slot_[i] >> 1);
      const Edge& ed = g.edge(e);
      sim.send((slot_[i] & 1u) != 0 ? ed.v : ed.u, e, msg_[i]);
    }
    sim.finish_round();
    for (VertexId v : sim.delivered_to())
      for (const congest::Delivery& d : sim.inbox(v))
        checksum += d.msg.value ^ d.from;
  }
  const double ms = ms_since(t0);
  // Keep the receive loop observable so it cannot be optimized away.
  if (checksum == 0x5eed5eed5eed) std::fputc('\0', stderr);
  return ms;
}

void BuildProbe::mark(const congest::SolverCore& core) {
  before_.clear();
  for (io::CachedShortcut& c : core.export_cache())
    before_.insert(std::move(c.part_of));
}

void BuildProbe::collect(const congest::SolverCore& core) {
  for (io::CachedShortcut& c : core.export_cache()) {
    if (before_.count(c.part_of) != 0) continue;
    const Partition parts(std::move(c.part_of));
    const auto t0 = Clock::now();
    const Shortcut sc = core.engine().build_shortcut(
        core.graph(), core.tree(), parts, core.certificate());
    build_ms += ms_since(t0);
    ++builds;
    for (const std::vector<EdgeId>& h : sc.edges_of_part)
      shortcut_edges += static_cast<long long>(h.size());
    const ShortcutMetrics m =
        core.engine()
            .build(core.graph(), core.tree(), parts, core.certificate())
            .metrics;
    block_max = std::max(block_max, m.block);
    congestion_max = std::max(congestion_max, m.congestion);
  }
}

void BuildProbe::merge(const BuildProbe& other) {
  builds += other.builds;
  build_ms += other.build_ms;
  shortcut_edges += other.shortcut_edges;
  block_max = std::max(block_max, other.block_max);
  congestion_max = std::max(congestion_max, other.congestion_max);
}

double lookup_us(const congest::SolverCore& core) {
  std::vector<io::CachedShortcut> cached = core.export_cache();
  if (cached.empty()) return 0.0;
  const Partition parts(std::move(cached.front().part_of));
  std::vector<double> us;
  for (int i = 0; i < 201; ++i) {
    const auto t0 = Clock::now();
    const congest::SolverCore::Acquired a = core.acquire(parts, true);
    us.push_back(ms_since(t0) * 1000.0);
    if (!a.hit) return 0.0;  // not resident after all: no lookup to time
  }
  return median(std::move(us));
}

void LayerTally::add(const congest::RunReport& r) {
  solve_wall_ms += r.wall_ms;
  rounds += r.rounds;
  phases += r.phases;
  aggregations += r.aggregations;
  hits += r.cache_hits;
  misses += r.cache_misses;
  evictions += r.cache_evictions;
}

void LayerTally::add(CaptureTransport& capture, const Graph& g) {
  messages += capture.messages();
  peak_round_msgs = std::max(peak_round_msgs, capture.peak_round_messages());
  replay_ms += capture.replay_ms(g);
  capture.clear();
}

void LayerTally::add(const PhaseClock& clock) {
  phase_ms.insert(phase_ms.end(), clock.phase_ms().begin(),
                  clock.phase_ms().end());
}

void LayerTally::fill(Result& out) const {
  const double k = static_cast<double>(std::max<long long>(requests, 1));
  auto& l = out.layer;
  l["core.build_calls"] = static_cast<double>(misses) / k;
  l["core.build_ms"] = build.build_ms / k;
  l["core.build_us_per_call"] =
      build.builds > 0 ? build.build_ms * 1000.0 /
                             static_cast<double>(build.builds)
                       : 0.0;
  l["core.shortcut_edges"] = static_cast<double>(build.shortcut_edges) / k;
  l["core.block_max"] = build.block_max;
  l["core.congestion_max"] = build.congestion_max;
  l["cache.hits"] = static_cast<double>(hits) / k;
  l["cache.misses"] = static_cast<double>(misses) / k;
  l["cache.evictions"] = static_cast<double>(evictions) / k;
  l["cache.hit_ratio"] =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  l["sim.rounds"] = static_cast<double>(rounds) / k;
  l["sim.messages"] = static_cast<double>(messages) / k;
  l["sim.peak_round_msgs"] = static_cast<double>(peak_round_msgs);
  l["sim.replay_ms"] = replay_ms / k;
  l["sim.ns_per_msg"] =
      messages > 0 ? replay_ms * 1e6 / static_cast<double>(messages) : 0.0;
  l["programs.self_ms"] =
      (solve_wall_ms - replay_ms - build.build_ms - transport_ms) / k;
  l["programs.phases"] = static_cast<double>(phases) / k;
  l["programs.aggregations"] = static_cast<double>(aggregations) / k;
  l["programs.phase_ms_max"] =
      phase_ms.empty() ? 0.0
                       : *std::max_element(phase_ms.begin(), phase_ms.end());
  l["trace.overhead_pct"] =
      untraced_ms > 0.0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms
                        : 0.0;
  if (build.builds != misses)
    out.notes.push_back("core.build_ms re-timed " +
                        std::to_string(build.builds) + " resident of " +
                        std::to_string(misses) + " constructions");
  out.notes.push_back("programs.self_ms is a remainder: solve wall - "
                      "sim.replay_ms - core.build_ms - transport exchange");
}

}  // namespace perfbench
