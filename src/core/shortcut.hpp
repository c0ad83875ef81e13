// Tree-restricted shortcuts and their quality measures (Definitions 10-13).
//
// A Shortcut assigns each part a set of spanning-tree edges H_i. Quality is
// measured, never assumed: congestion (Def 11) is the max number of parts
// sharing an edge, the block parameter (Def 12) counts the connected
// components of (V, H_i) touching P_i, and quality (Def 13) is
// b * diam(T) + c — exactly the quantity Theorem 1 converts into rounds.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "graph/rooted_tree.hpp"

namespace mns {

struct Shortcut {
  /// Per part: edge ids of H_i (tree edges of the ambient graph).
  std::vector<std::vector<EdgeId>> edges_of_part;
};

/// Roots a spanning tree of the network (CoreConfig::tree; the default is
/// center_tree_factory() in core/shortcut_engine.hpp).
using TreeFactory = std::function<RootedTree(const Graph&)>;

/// The empty shortcut for `parts` (the no-shortcut flooding baseline): every
/// part communicates over G[P_i] alone. Lives here, next to Shortcut itself
/// — it is a core concept, not an MST detail.
[[nodiscard]] Shortcut empty_shortcut(const Partition& parts);

struct ShortcutMetrics {
  int congestion = 0;        ///< c: max parts per edge (Def 11)
  int block = 0;             ///< b: max block components per part (Def 12)
  int tree_diameter = 0;     ///< d_T
  long long quality = 0;     ///< q = b * d_T + c (Def 13)
  std::vector<int> block_of_part;
  double mean_block = 0.0;
  double mean_congestion = 0.0;  ///< over edges with nonzero congestion
};

/// "" iff every assigned edge is an edge of `tree` (Definition 10) and edge
/// ids are in range. Duplicate edges within one part are rejected.
[[nodiscard]] std::string validate_tree_restricted(const Graph& g,
                                                   const RootedTree& tree,
                                                   const Shortcut& shortcut);

/// Measures congestion / block / quality of `shortcut` for `parts` on `tree`.
[[nodiscard]] ShortcutMetrics measure_shortcut(const Graph& g,
                                               const RootedTree& tree,
                                               const Partition& parts,
                                               const Shortcut& shortcut);

/// Diameter of the spanning tree as a graph (two BFS passes over tree edges).
[[nodiscard]] int tree_diameter(const RootedTree& tree);

}  // namespace mns
