// The vertex-parallel round engine (DESIGN.md §7). A VertexProgram
// expresses one lock-step algorithm as per-vertex hooks —
//
//   frontier()              the vertices that act this round (canonical order)
//   send(v, out)            queue v's messages for this round
//   receive(v, inbox, ctx)  drain v's inbox, update v-local state
//   end_round()             sequential barrier: merge shard buffers, rebuild
//                           the frontier, flip round-global flags
//
// — and run_vertex_program() drives the rounds, fanning send/receive over
// the simulator's shards when the ExecutionPolicy asks for threads.
//
// Delivery forms (DESIGN.md §7): a program may also define
//
//   receive_batch(batch)    absorb the whole round in canonical batch order
//
// and the engine then uses it whenever the simulator runs ONE shard: the
// round ends with Simulator::finish_round_batch(), which skips the
// per-destination inbox scatter. It must have receive()'s effect: batch
// order keeps each receiver's deliveries in inbox order, so a program whose
// per-vertex state is written only by that vertex's own deliveries matches
// the inbox form exactly if it wakes receivers in first-delivery order
// (delivered_to()'s order). At more than one shard, and for programs
// without receive_batch, rounds end with finish_round() and fan receive()
// over delivered_to() as before.
//
// The determinism contract (DESIGN.md §7): the engine splits the frontier
// into CONTIGUOUS blocks, one per shard; within a block vertices run in
// frontier order, and Simulator::finish_round() concatenates the shard
// staging buffers in shard order — so the merged send order equals the
// sequential order, message for message, at any thread count. Programs keep
// the contract by (a) writing only v-owned state from send(v)/receive(v),
// (b) funneling all cross-vertex effects through PerShard accumulators
// merged in end_round() (shard order == frontier order, deterministic), and
// (c) never branching on shard identity or thread timing.
//
// Round accounting: an empty frontier is checked BEFORE the round is
// counted, so quiescence costs no rounds.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "congest/simulator.hpp"

namespace mns::congest {

/// Below this frontier size a phase runs inline on the calling thread (as
/// shard 0): waking the pool costs more than the work. Purely a wall-clock
/// heuristic — block merging makes the result identical either way.
inline constexpr std::size_t kParallelGrain = 256;

/// Send-phase context: all sends originate at the vertex the engine is
/// currently running (that is what keeps the per-shard staging race-free —
/// directed slot 2e+side belongs to exactly one endpoint, and each vertex
/// runs in exactly one shard).
class VertexSender {
 public:
  VertexSender(Simulator& sim, int shard, bool direct) noexcept
      : sim_(&sim), shard_(shard), direct_(direct) {}

  /// Sends from the current vertex across `edge`. Throws (possibly deferred
  /// to finish_round) on endpoint or CONGEST-capacity violations.
  void send(EdgeId edge, const Message& msg) {
    if (direct_)
      sim_->send(v_, edge, msg);
    else
      sim_->stage_send(shard_, v_, edge, msg);
  }

  [[nodiscard]] VertexId vertex() const noexcept { return v_; }
  [[nodiscard]] int shard() const noexcept { return shard_; }

  /// Engine-internal: repointed per vertex.
  void set_vertex(VertexId v) noexcept { v_ = v; }

 private:
  Simulator* sim_;
  VertexId v_ = kInvalidVertex;
  int shard_;
  bool direct_;
};

/// Receive-phase context: identifies the shard so programs can write into
/// PerShard accumulators instead of shared state.
struct ShardContext {
  int shard = 0;
  int num_shards = 1;
};

/// Per-shard accumulator for cross-vertex effects (next-frontier lists,
/// changed flags, counters, effect queues). Slots are cache-line padded;
/// merge in shard order (for_each) — with contiguous-block sharding that
/// order IS the frontier order, which is what keeps merged results
/// bit-identical to sequential execution.
template <typename T>
class PerShard {
 public:
  PerShard() = default;
  explicit PerShard(int num_shards) { reset(num_shards); }

  void reset(int num_shards) {
    slots_.assign(static_cast<std::size_t>(num_shards), Slot{});
  }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(slots_.size());
  }
  [[nodiscard]] T& operator[](int shard) {
    return slots_[static_cast<std::size_t>(shard)].value;
  }

  /// Visits every slot in shard order (the deterministic merge order).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) fn(s.value);
  }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

/// The dual-phase frontier bookkeeping shared by stateful programs
/// (aggregation, GHS upcast/downcast, capped-greedy, BFS, broadcast,
/// convergecast): a vertex re-enters the next round's frontier either from
/// the send phase (it kept pending work), from the receive phase (a
/// delivery woke it), or at the barrier (a cross-vertex effect). The
/// queued_ flags dedup across all three paths — safe because
/// send(v)/receive(v) only ever flag v itself, and barrier wakes run
/// sequentially. Merge order is send-keeps then receive-wakes
/// then barrier wakes, each in shard order == frontier order, so the
/// rebuilt frontier is deterministic at any thread count.
class FrontierTracker {
 public:
  FrontierTracker(int num_shards, VertexId num_vertices)
      : queued_(static_cast<std::size_t>(num_vertices), 0),
        send_keep_(num_shards), recv_wake_(num_shards) {}

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return frontier_list_;
  }
  [[nodiscard]] int num_shards() const noexcept { return send_keep_.size(); }
  /// Forgets every list and flag — also those a run that threw left behind
  /// — keeping all capacity, so a tracker reused across runs stops
  /// allocating once warm.
  void clear() {
    std::fill(queued_.begin(), queued_.end(), char{0});
    frontier_list_.clear();
    send_keep_.for_each([](std::vector<VertexId>& l) { l.clear(); });
    recv_wake_.for_each([](std::vector<VertexId>& l) { l.clear(); });
  }
  /// Init-time push, before the first round (no dedup — seed each vertex
  /// once).
  void seed(VertexId v) { frontier_list_.push_back(v); }

  void keep_from_send(VertexId v, int shard) { enqueue(v, send_keep_[shard]); }
  void wake_from_receive(VertexId v, int shard) {
    enqueue(v, recv_wake_[shard]);
  }
  /// Barrier-time wake (sequential, from end_round effect application);
  /// only meaningful between merge_phases() and clear_flags().
  void wake_at_barrier(VertexId v) { enqueue(v, frontier_list_); }

  /// First half of end_round: rebuild the frontier from the per-shard
  /// lists. Programs with barrier effects call this, apply them (using
  /// wake_at_barrier), then clear_flags(); everyone else calls end_round().
  void merge_phases() {
    frontier_list_.clear();
    send_keep_.for_each([&](std::vector<VertexId>& part) {
      frontier_list_.insert(frontier_list_.end(), part.begin(), part.end());
      part.clear();
    });
    recv_wake_.for_each([&](std::vector<VertexId>& part) {
      frontier_list_.insert(frontier_list_.end(), part.begin(), part.end());
      part.clear();
    });
  }
  /// Second half: reset the dedup flags for the next round.
  void clear_flags() {
    for (VertexId v : frontier_list_) queued_[static_cast<std::size_t>(v)] = 0;
  }
  void end_round() {
    merge_phases();
    clear_flags();
  }

 private:
  void enqueue(VertexId v, std::vector<VertexId>& out) {
    if (!queued_[static_cast<std::size_t>(v)]) {
      queued_[static_cast<std::size_t>(v)] = 1;
      out.push_back(v);
    }
  }

  std::vector<char> queued_;
  std::vector<VertexId> frontier_list_;
  // Per-shard wake lists: each worker appends to its own slot, and once
  // warm the lists stop allocating (DESIGN.md §9 "Round buffers").
  PerShard<std::vector<VertexId>> send_keep_;
  PerShard<std::vector<VertexId>> recv_wake_;
};

namespace detail {

/// Fans fn(shard, ctx, item) over `items` split into contiguous blocks, one
/// per shard; runs inline (all items as shard 0) when the pool would cost
/// more than it saves. Identical observable order either way.
template <typename Fn>
void for_each_sharded(Simulator& sim, std::span<const VertexId> items,
                      Fn&& fn) {
  const std::size_t count = items.size();
  if (count == 0) return;
  const int shards = sim.num_shards();
  if (shards <= 1 || count < kParallelGrain) {
    fn(0, /*direct=*/true, items);
    return;
  }
  sim.pool().run(shards, [&](int s) {
    const std::size_t begin =
        count * static_cast<std::size_t>(s) / static_cast<std::size_t>(shards);
    const std::size_t end = count * (static_cast<std::size_t>(s) + 1) /
                            static_cast<std::size_t>(shards);
    if (begin < end) fn(s, /*direct=*/false, items.subspan(begin, end - begin));
  });
}

}  // namespace detail

/// Programs that can absorb a round in batch order (see the file comment).
template <typename Program>
concept BatchReceiver = requires(Program& prog, const RoundBatch& batch) {
  prog.receive_batch(batch);
};

/// Runs exactly ONE round of the program (or none, if the frontier is
/// empty): fan send() over the frontier, turn the round over, fan receive()
/// over the delivered vertices (or hand a BatchReceiver the batch when one
/// shard runs), then let the program merge at the end_round() barrier.
/// Returns the rounds consumed (0 or 1). The single-step form of
/// run_vertex_program, for drivers that interleave phase-granular
/// bookkeeping (traces, convergence probes) between rounds.
template <typename Program>
long long run_vertex_program_round(Simulator& sim, Program& prog) {
  const std::span<const VertexId> frontier = prog.frontier();
  if (frontier.empty()) return 0;
  const int shards = sim.num_shards();
  detail::for_each_sharded(
      sim, frontier,
      [&](int shard, bool direct, std::span<const VertexId> block) {
        VertexSender out(sim, shard, direct);
        for (VertexId v : block) {
          out.set_vertex(v);
          prog.send(v, out);
        }
      });
  if constexpr (BatchReceiver<Program>) {
    if (shards == 1) {
      prog.receive_batch(sim.finish_round_batch());
      prog.end_round();
      return 1;
    }
  }
  sim.finish_round();
  detail::for_each_sharded(
      sim, sim.delivered_to(),
      [&](int shard, bool, std::span<const VertexId> block) {
        const ShardContext ctx{shard, shards};
        for (VertexId v : block) prog.receive(v, sim.inbox(v), ctx);
      });
  prog.end_round();
  return 1;
}

/// Drives a VertexProgram to quiescence: one round at a time while the
/// frontier is nonempty. Returns rounds consumed (quiescence itself costs
/// none).
template <typename Program>
long long run_vertex_program(Simulator& sim, Program& prog) {
  const long long start = sim.rounds();
  while (run_vertex_program_round(sim, prog) != 0) {
  }
  return sim.rounds() - start;
}

}  // namespace mns::congest
