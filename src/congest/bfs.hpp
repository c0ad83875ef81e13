// Distributed BFS-tree construction by flooding: the O(D) primitive every
// shortcut algorithm starts from (Theorem 1 roots everything at a BFS tree).
#pragma once

#include "congest/simulator.hpp"

namespace mns::congest {

struct DistributedBfsResult {
  std::vector<int> dist;
  std::vector<VertexId> parent;
  std::vector<EdgeId> parent_edge;
  long long rounds = 0;  ///< rounds consumed (== eccentricity of root)
};

/// Floods from `root`; every node adopts the first sender as parent.
/// Requires a connected graph.
[[nodiscard]] DistributedBfsResult distributed_bfs(Simulator& sim,
                                                   VertexId root);

}  // namespace mns::congest
