// Distributed BFS-tree construction by flooding: the O(D) primitive every
// shortcut algorithm starts from (Theorem 1 roots everything at a BFS tree).
#pragma once

#include "congest/workload.hpp"

namespace mns::congest {

/// Floods from q.root; every node adopts the first sender as parent. The
/// flood is one phase of `meter`. Requires a connected graph.
[[nodiscard]] BfsPayload distributed_bfs(const Bfs& q, PhaseMeter& meter);

}  // namespace mns::congest
