// Part-wise aggregation — the primitive Theorem 1 accelerates. Every part
// must compute (and disseminate to all its members) the minimum of its
// members' values. Communication of part p flows over G[P_p] plus p's
// shortcut edges H_p, with the CONGEST capacity of one message per directed
// edge per round honestly simulated: parts sharing a tree edge queue behind
// each other, so congestion shows up as real measured rounds. With an empty
// shortcut this degrades to intra-part flooding — the naive baseline whose
// round count is the isolated part diameter.
//
// The constructor resolves every (node, part) lookup the flood will need
// into flat tables (DESIGN.md §9 "The aggregation kernel"), so sending a
// message is a handful of indexed loads: no search, no allocation. The
// sender also records, per directed slot, the part tag it sent and the
// receiver's participation index, so receiving is one record load. On one
// shard the flood absorbs each round in batch order (no inbox scatter;
// vertex_program.hpp). An improvement is never queued back along the edge
// it arrived on: the neighbour there already holds at most that value
// (DESIGN.md §9, no echo). aggregate_min reuses one per-run workspace
// across calls, frontier bookkeeping included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "congest/simulator.hpp"
#include "congest/vertex_program.hpp"
#include "core/partition.hpp"
#include "core/shortcut.hpp"

namespace mns::congest {

/// A value with a tiebreaker, compared lexicographically.
struct AggValue {
  std::int64_t value = 0;
  std::int32_t aux = 0;
  friend bool operator<(const AggValue& a, const AggValue& b) {
    return std::pair(a.value, a.aux) < std::pair(b.value, b.aux);
  }
  friend bool operator==(const AggValue&, const AggValue&) = default;
};

struct AggregationResult {
  std::vector<AggValue> min_of_part;
  long long rounds = 0;
};

class PartwiseAggregator {
 public:
  /// Precomputes the per-part communication graphs. `shortcut` may be empty
  /// (edges_of_part all empty) for the no-shortcut baseline. Throws
  /// InvariantViolation if `parts` is not a partition of g's vertices or
  /// `shortcut` does not have one edge list per part.
  PartwiseAggregator(const Graph& g, const Partition& parts,
                     const Shortcut& shortcut);

  /// Distributed min: `initial[v]` is v's input (only read for vertices that
  /// belong to a part). On return every member of part p holds
  /// min_of_part[p]; the simulator's round counter advances by the measured
  /// number of communication rounds. Runs on the aggregator's own reusable
  /// workspace: one caller at a time per aggregator.
  [[nodiscard]] AggregationResult aggregate_min(
      Simulator& sim, const std::vector<AggValue>& initial);

  /// Number of (node, part) participation pairs — a size/memory metric.
  [[nodiscard]] std::size_t participations() const noexcept {
    return participations_;
  }

 private:
  struct Program;  // the flooding schedule (aggregation.cpp)

  /// One outgoing dirty bit: bit `bit` of directed slot `slot` = 2e + side.
  struct SlotBit {
    std::uint32_t slot;
    std::uint32_t bit;
  };

  /// What directed slot d carried in the current round, written by its
  /// sender: the part tag and the receiver's participation index
  /// (owner_ at side d ^ 1).
  struct SentRecord {
    PartId tag;
    std::uint32_t receiver;
  };

  /// The per-run state, reset at the start of every aggregate_min (a run
  /// that threw leaves nothing behind). Its sizes are fixed by the tables
  /// and the simulator's shard count, so it allocates only on the first.
  struct Workspace {
    std::vector<AggValue> state;       ///< per participation
    std::vector<std::uint64_t> dirty;  ///< packed masks, word_off_ layout
    std::vector<std::uint32_t> cursor;        ///< per directed slot
    std::vector<std::uint32_t> active;        ///< v's list at active_base_[v]
    std::vector<std::uint32_t> active_count;  ///< per vertex
    /// Per directed slot; read only in the round its slot sent, so never
    /// reset.
    std::vector<SentRecord> record;
    /// Batch receive: per vertex 0 = no delivery yet this round, 1 =
    /// delivered, 2 = a delivery woke it; `receivers` lists the delivered
    /// vertices in first-delivery order.
    std::vector<char> delivered;
    std::vector<VertexId> receivers;
    std::optional<FrontierTracker> tracker;
  };

  const Graph* g_;
  const Partition* parts_;
  std::size_t participations_ = 0;

  // Parts of edge e, ascending: poe_flat_[poe_offset_[e], poe_offset_[e+1]).
  // Position i in that range is bit i of both directed slots of e.
  std::vector<std::uint32_t> poe_offset_;  // size m+1
  std::vector<PartId> poe_flat_;
  // Dirty words of directed slot d = 2e + side: one bit per part of e,
  // word-aligned in ceil(k/64) uint64 words at [word_off_[d],
  // word_off_[d+1]), so two slots never share a word.
  std::vector<std::uint32_t> word_off_;  // size 2m+1
  // Participation index of the endpoint on `side` of e for its i-th part:
  // owner_[2 * (poe_offset_[e] + i) + side]. The sender reads its value
  // through it; the receiver of slot d finds its own state at side d^1.
  std::vector<std::uint32_t> owner_;  // size 2 * poe_flat_.size()
  // For participation s = (v, p): v's outgoing bits that carry p, in
  // incident_edges(v) order — what an improvement at s re-dirties, except
  // the bit back toward the neighbour it came from.
  std::vector<std::uint32_t> redirty_offset_;  // size participations_+1
  std::vector<SlotBit> redirty_;
  // Participation index of (v, part_of(v)); unused for kNoPart vertices.
  std::vector<std::uint32_t> own_slot_;  // size n
  // Start of v's active-slot list in the workspace: the degree prefix sum.
  std::vector<std::uint32_t> active_base_;  // size n+1

  Workspace ws_;
};

}  // namespace mns::congest
