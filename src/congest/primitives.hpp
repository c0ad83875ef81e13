// Standard CONGEST primitives on a rooted spanning tree: convergecast (sum
// toward the root, O(height) rounds). The paper treats these O(D) set-up
// steps as free ([paper §1.3.1]: nodes learn n and D "in O(D) time, which
// is negligible in our context").
#pragma once

#include "congest/simulator.hpp"
#include "graph/rooted_tree.hpp"

namespace mns::congest {

/// Convergecast: the SUM of all `values` flows to the root (O(height)
/// rounds) — each node reports its subtree total once every child reported.
struct ConvergecastSumResult {
  std::int64_t sum_at_root = 0;
  long long rounds = 0;
};
[[nodiscard]] ConvergecastSumResult convergecast_sum(
    Simulator& sim, const RootedTree& tree,
    const std::vector<std::int64_t>& values);

}  // namespace mns::congest
