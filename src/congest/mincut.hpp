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
#include "congest/simulator.hpp"

namespace mns::congest {

/// Exact global min cut (Stoer-Wagner, O(n^3)); for verification.
[[nodiscard]] Weight exact_min_cut(const Graph& g,
                                   const std::vector<Weight>& w);

struct MinCutResult {
  Weight value = 0;      ///< best 1-respecting cut over the packing
  long long rounds = 0;  ///< measured rounds (dominated by the MSTs)
  /// Construction charges for freshly built shortcuts (DESIGN.md §2),
  /// accumulated across the packing MSTs and the dissemination shortcut.
  long long charged_construction_rounds = 0;
  long long aggregations = 0;
  int trees = 0;

  [[nodiscard]] long long total_rounds() const {
    return rounds + charged_construction_rounds;
  }
};

struct MinCutOptions {
  /// Shortcut source shared by the packing MSTs and the per-tree cut
  /// dissemination (Session::solve wires the session cache in here).
  ShortcutSource source;
  int num_trees = 8;
  /// Score each packing tree by its best 2-respecting cut (Thorup's (1+eps)
  /// guarantee) instead of 1-respecting only (2-approx guarantee). The
  /// evaluation is centralized verifier-grade either way; the charged rounds
  /// are identical (see DESIGN.md §4).
  bool two_respecting = false;
  /// Optional per-packing-tree telemetry (stage = "packing-tree").
  RoundTraceHook trace;
};

[[nodiscard]] MinCutResult approx_min_cut(Simulator& sim,
                                          const std::vector<Weight>& w,
                                          const MinCutOptions& options);

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
