// Min-cut: exact Stoer-Wagner verifier (centralized) and the distributed
// tree-packing approximation of Corollary 1's (1+eps) algorithm shape
// [NS14, GK13 via Thorup/Karger]: greedily pack spanning trees (each packing
// tree is one MST computation over load-scaled weights — the round-dominant
// step, honestly simulated), then score each tree by its best 1-respecting
// cut. With enough trees the best 1-respecting cut across the packing is a
// (2+eps)-approximation (and in practice usually exact). Each tree's cut
// evaluation is verifier-grade centralized, but its dissemination is a real
// part-wise aggregation over the source's shortcut (the DESIGN.md §4
// substitution), measured, not guessed. All distributed traffic —
// the packing MSTs and the dissemination aggregations — runs on the
// vertex-parallel round engine (DESIGN.md §7) by composition, so min-cut
// inherits thread scaling with bit-identical rounds/messages/values.
// Internal engine of Session::solve(MinCut) — user code goes through
// congest::Session.
#pragma once

#include "congest/mst.hpp"
#include "congest/workload.hpp"

namespace mns::congest {

/// Exact global min cut (Stoer-Wagner, O(n^3)); for verification.
[[nodiscard]] Weight exact_min_cut(const Graph& g,
                                   const std::vector<Weight>& w);

/// Greedy tree packing: q.num_trees packing MSTs over `source`, each scored
/// by its best 1- (or 2-) respecting cut, the score disseminated by one
/// aggregation over the whole network. Each tree is one "packing-tree"
/// phase of `meter`; the packing MSTs add their aggregations and charges
/// but no phases or trace entries.
[[nodiscard]] MinCutPayload approx_min_cut(const MinCut& q,
                                           const ShortcutSource& source,
                                           PhaseMeter& meter);

/// Best 1-respecting cut of the spanning tree `tree_edges` (centralized
/// helper, also used to verify the distributed accounting).
[[nodiscard]] Weight best_one_respecting_cut(
    const Graph& g, const std::vector<Weight>& w,
    const std::vector<EdgeId>& tree_edges);

/// Best cut crossing the tree in at most TWO tree edges (1- or 2-respecting)
/// — the quantity Thorup's packing lemma guarantees approximates the min cut
/// to (1+eps) with enough trees. Centralized O(n^2) evaluation per tree;
/// used by tests/benches as the full-strength verifier.
[[nodiscard]] Weight best_two_respecting_cut(
    const Graph& g, const std::vector<Weight>& w,
    const std::vector<EdgeId>& tree_edges);

/// Per-vertex candidates behind best_one_respecting_cut(): cut(S_v) keyed by
/// the child vertex v of each tree edge (max() at the root, which keys no
/// edge). These are the values approx_min_cut disseminates.
[[nodiscard]] std::vector<Weight> one_respecting_cut_values(
    const Graph& g, const std::vector<Weight>& w,
    const std::vector<EdgeId>& tree_edges);

/// Per-vertex candidates behind best_two_respecting_cut(): for each child
/// vertex, the best 1- or 2-respecting cut using its tree edge.
[[nodiscard]] std::vector<Weight> two_respecting_cut_values(
    const Graph& g, const std::vector<Weight>& w,
    const std::vector<EdgeId>& tree_edges);

}  // namespace mns::congest
