// The outside-in trace kit: per-layer measurements taken from the library's
// existing seams, without touching the library.
//
//   CaptureTransport   a Transport installed with set_transport(): records
//                      each round's canonical traffic, optionally forwarding
//                      to an inner transport first (so it can sit on top of
//                      a socket rank). replay() pushes the captured traffic
//                      through a fresh Simulator (send / finish_round /
//                      inbox), which isolates the round engine's self time.
//   TimedTransport     decorator timing every exchange() of an inner
//                      transport: the per-round barrier of a socket rank.
//   PhaseClock         a RoundTraceHook that timestamps phase boundaries.
//   BuildProbe         re-times ShortcutEngine::build_shortcut on partitions
//                      that became resident in SolverCore::export_cache(),
//                      and measures their quality with ShortcutEngine::build.
//   lookup_us()        times SolverCore::acquire on a resident partition.
#pragma once

#include <set>
#include <vector>

#include "common.hpp"
#include "congest/solver_core.hpp"
#include "transport/transport.hpp"

namespace perfbench {

class CaptureTransport final : public transport::Transport {
 public:
  explicit CaptureTransport(transport::Transport* inner = nullptr)
      : inner_(inner) {}

  void exchange(const transport::RoundTraffic& traffic) override;
  [[nodiscard]] transport::TransportStats stats() const override {
    return inner_ != nullptr ? inner_->stats() : transport::TransportStats{};
  }

  [[nodiscard]] long long messages() const noexcept {
    return static_cast<long long>(slot_.size());
  }
  [[nodiscard]] long long peak_round_messages() const noexcept {
    return peak_;
  }
  void clear();

  /// Replays every captured round through a fresh Simulator over `g` and
  /// returns the wall time in ms (simulator construction excluded). Each
  /// delivered inbox is read back, as a receive phase would.
  [[nodiscard]] double replay_ms(const Graph& g) const;

 private:
  transport::Transport* inner_;
  std::vector<std::size_t> round_begin_;
  std::vector<std::uint32_t> slot_;
  std::vector<congest::Message> msg_;
  long long peak_ = 0;
};

class TimedTransport final : public transport::Transport {
 public:
  explicit TimedTransport(transport::Transport& inner) : inner_(inner) {}

  void exchange(const transport::RoundTraffic& traffic) override {
    const auto t0 = Clock::now();
    inner_.exchange(traffic);
    exchange_us_.push_back(ms_since(t0) * 1000.0);
  }
  [[nodiscard]] transport::TransportStats stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] const std::vector<double>& exchange_us() const noexcept {
    return exchange_us_;
  }

 private:
  transport::Transport& inner_;
  std::vector<double> exchange_us_;
};

/// Phase durations of one or more solves, cut at RoundTraceHook callbacks.
class PhaseClock {
 public:
  /// Marks the start of a solve; the first phase is timed from here.
  void start() { last_ = Clock::now(); }
  [[nodiscard]] congest::RoundTraceHook hook() {
    return [this](const congest::RoundTrace&) {
      const auto now = Clock::now();
      phase_ms_.push_back(ms_between(last_, now));
      last_ = now;
    };
  }
  [[nodiscard]] const std::vector<double>& phase_ms() const noexcept {
    return phase_ms_;
  }

 private:
  Clock::time_point last_ = Clock::now();
  std::vector<double> phase_ms_;
};

/// Construction economics of the partitions built during traced requests.
class BuildProbe {
 public:
  /// Remembers what is resident now; call right before the solves.
  void mark(const congest::SolverCore& core);
  /// Re-times build_shortcut on every partition resident now but not at
  /// mark(), and measures its quality.
  void collect(const congest::SolverCore& core);
  /// Folds another probe's totals into this one.
  void merge(const BuildProbe& other);

  long long builds = 0;        ///< partitions re-timed
  double build_ms = 0.0;       ///< summed re-timed construction wall
  long long shortcut_edges = 0;
  int block_max = 0;
  int congestion_max = 0;

 private:
  std::set<std::vector<PartId>> before_;
};

/// Median wall time, in microseconds, of SolverCore::acquire on the most
/// recently used resident partition (0 when the cache is empty).
[[nodiscard]] double lookup_us(const congest::SolverCore& core);

/// Accumulates the traced requests of one run and turns them into the
/// construction / cache / sim / programs per-layer metrics, each per traced
/// request unless its name says otherwise.
struct LayerTally {
  long long requests = 0;
  double solve_wall_ms = 0.0;  ///< summed RunReport::wall_ms
  long long rounds = 0;        ///< summed RunReport::rounds
  long long phases = 0;
  long long aggregations = 0;
  long long hits = 0;
  long long misses = 0;
  long long evictions = 0;
  long long messages = 0;      ///< captured
  long long peak_round_msgs = 0;
  double replay_ms = 0.0;
  double transport_ms = 0.0;  ///< time inside a wrapped transport's exchange
  std::vector<double> phase_ms;
  BuildProbe build;
  double traced_ms = 0.0;    ///< traced request latencies, summed
  double untraced_ms = 0.0;  ///< the same requests untraced, summed

  void add(const congest::RunReport& r);
  /// Replays and then clears the capture (graph = the one it ran on).
  void add(CaptureTransport& capture, const Graph& g);
  void add(const PhaseClock& clock);
  void fill(Result& out) const;
};

}  // namespace perfbench
