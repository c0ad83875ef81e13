// Uniform (structure-oblivious) tree-restricted shortcut constructors in the
// spirit of [HIZ16a]: they see only the spanning tree and the parts, exactly
// like the distributed algorithm the paper's Theorem 1 relies on. Used both
// as stand-alone constructions and as the base-case "oracle" inside the
// clique-sum / apex composition builders.
//
// All constructors work on *terminal sets*, which are allowed to be
// disconnected inside a local subproblem (the composition builders restrict
// parts to bags); validity of top-level parts is checked separately.
#pragma once

#include <functional>
#include <vector>

#include "core/shortcut.hpp"
#include "graph/rooted_tree.hpp"

namespace mns {

/// Edges identified by the child endpoint: taking "vertex v" means taking the
/// tree edge (v, parent(v)).
using TreeEdgeSet = std::vector<VertexId>;

/// Every terminal climbs `levels` tree levels toward the root (-1 = all the
/// way). Small levels trade block count for congestion.
[[nodiscard]] std::vector<TreeEdgeSet> ancestor_climb(
    const RootedTree& tree,
    const std::vector<std::vector<VertexId>>& terminal_sets, int levels);

/// Each set takes its full Steiner subtree in T (paths to the set's LCA):
/// block = 1 by construction, congestion whatever it costs.
[[nodiscard]] std::vector<TreeEdgeSet> steiner_subtrees(
    const RootedTree& tree,
    const std::vector<std::vector<VertexId>>& terminal_sets);

/// Level-synchronous capped greedy: heads climb from the terminals toward the
/// root, merging when they meet previously acquired vertices of their own
/// set; an edge admits at most `congestion_cap` sets, later arrivals freeze
/// in place (becoming block roots). The terminal sets must be disjoint: a
/// vertex in two sets throws InvariantViolation naming it (DESIGN.md §9).
[[nodiscard]] std::vector<TreeEdgeSet> capped_greedy(
    const RootedTree& tree,
    const std::vector<std::vector<VertexId>>& terminal_sets,
    int congestion_cap);

/// Runs capped_greedy over a geometric ladder of caps and keeps the result
/// with the best quality b * diam(T) + c (the [HIZ16a]-style tuning loop a
/// distributed implementation performs by doubling). It stops at the first
/// rung that refused no climb: every larger cap would replay it exactly.
struct TunedGreedyResult {
  std::vector<TreeEdgeSet> sets;
  int chosen_cap = 0;
};
[[nodiscard]] TunedGreedyResult tuned_greedy(
    const RootedTree& tree,
    const std::vector<std::vector<VertexId>>& terminal_sets);

/// Converts child-vertex edge sets into a Shortcut over graph edge ids using
/// the tree's parent_edge bindings.
[[nodiscard]] Shortcut to_shortcut(const RootedTree& tree,
                                   const std::vector<TreeEdgeSet>& sets);

}  // namespace mns
