// Distributed MST (internal engine of Session::solve(Mst) — user code goes
// through congest::Session, which owns the shortcut cache and telemetry).
//
// boruvka_mst(): Boruvka phases on top of part-wise aggregation — the
// algorithm Theorem 1 accelerates. Each phase: one round of fragment-label
// exchange with neighbours, a part-wise min aggregation to pick each
// fragment's lightest outgoing edge (over the fragment's shortcut), a star-
// contraction merge, and one more aggregation on the new partition that
// disseminates the merged labels. Shortcuts arrive per phase from the
// injected ShortcutSource; freshly built ones are charged as an extra
// aggregation pass recorded in charged_construction_rounds (the [HIZ16a]
// substitution, DESIGN.md §2), cached ones are not charged again.
//
// controlled_ghs_mst(): the classical O~(D + sqrt(n)) baseline [GKP98]:
// fragment growth capped at sqrt(n), then pipelined upcast/downcast of
// fragment candidates over the BFS tree.
#pragma once

#include <functional>

#include "congest/aggregation.hpp"
#include "congest/shortcut_source.hpp"
#include "congest/simulator.hpp"
#include "graph/rooted_tree.hpp"

namespace mns::congest {

/// Kruskal reference (centralized) for verification.
[[nodiscard]] std::vector<EdgeId> kruskal_mst(const Graph& g,
                                              const std::vector<Weight>& w);

struct MstOptions {
  /// Where this run's per-phase shortcuts come from (Session::solve wires
  /// the session cache in here; empty_shortcut_source() for flooding).
  ShortcutSource source;
  /// Stop early once every fragment has at least this many vertices
  /// (controlled-GHS phase 1); 0 = run to a single fragment.
  VertexId stop_at_fragment_size = 0;
  /// Optional per-phase telemetry (stage = "boruvka-phase").
  RoundTraceHook trace;
};

struct MstResult {
  std::vector<EdgeId> edges;
  long long rounds = 0;  ///< measured communication rounds
  /// [HIZ16a] substitution charges for freshly built shortcuts (DESIGN.md
  /// §2); kept out of `rounds` so cached and cold runs measure identically.
  long long charged_construction_rounds = 0;
  long long aggregations = 0;  ///< part-wise aggregations performed
  int phases = 0;
  /// Fragment labels after the run (dense; for phase-1 handoff).
  std::vector<PartId> fragment_of;

  /// Measured + charged: the round count comparisons should quote.
  [[nodiscard]] long long total_rounds() const {
    return rounds + charged_construction_rounds;
  }
};

[[nodiscard]] MstResult boruvka_mst(Simulator& sim,
                                    const std::vector<Weight>& w,
                                    const MstOptions& options);

/// Controlled-GHS: Boruvka without shortcuts until fragments reach sqrt(n),
/// then pipelined candidate upcast/downcast over the given BFS tree.
/// `trace` receives phase-1 "boruvka-phase" entries and one "ghs-phase"
/// entry per pipelined phase-2 iteration.
[[nodiscard]] MstResult controlled_ghs_mst(Simulator& sim,
                                           const RootedTree& bfs_tree,
                                           const std::vector<Weight>& w,
                                           const RoundTraceHook& trace = {});

}  // namespace mns::congest
