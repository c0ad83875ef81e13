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
// aggregation pass through the PhaseMeter (the [HIZ16a] substitution,
// DESIGN.md §2), cached ones are not charged again.
//
// controlled_ghs_mst(): the classical O~(D + sqrt(n)) baseline [GKP98]:
// fragment growth capped at sqrt(n), then pipelined upcast/downcast of
// fragment candidates over the BFS tree.
#pragma once

#include <vector>

#include "congest/shortcut_source.hpp"
#include "congest/workload.hpp"
#include "graph/rooted_tree.hpp"

namespace mns::congest {

/// Kruskal reference (centralized) for verification.
[[nodiscard]] std::vector<EdgeId> kruskal_mst(const Graph& g,
                                              const std::vector<Weight>& w);

/// Boruvka to a single fragment, or, with `stop_at_fragment_size` > 0, until
/// every fragment has at least that many vertices (controlled-GHS phase 1).
/// Each phase is one "boruvka-phase" of `meter`.
[[nodiscard]] MstPayload boruvka_mst(const std::vector<Weight>& w,
                                     const ShortcutSource& source,
                                     PhaseMeter& meter,
                                     VertexId stop_at_fragment_size = 0);

/// Controlled-GHS: Boruvka without shortcuts until fragments reach sqrt(n),
/// then pipelined candidate upcast/downcast over the given BFS tree. The
/// phase-1 "boruvka-phase" entries come first, then one "ghs-phase" per
/// pipelined phase-2 iteration, numbered on from them.
[[nodiscard]] MstPayload controlled_ghs_mst(const std::vector<Weight>& w,
                                            const RootedTree& bfs_tree,
                                            PhaseMeter& meter);

}  // namespace mns::congest
