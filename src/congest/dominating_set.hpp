// Distributed dominating set by parallel span greedy (DESIGN.md §13).
//
// Each phase, every vertex whose closed neighborhood still contains
// uncovered vertices computes its span (how many it would newly cover) and
// the vertices that are span-maximum within distance 2 join the set — the
// parallelization of the classical greedy that never lets two nearby
// selections waste coverage on the same neighborhood. Four communication
// rounds per phase (coverage announcements, span exchange, maximum relay,
// join announcements), then a convergecast sums |D| to the tree root so the
// size is a value the NETWORK computed, not the driver.
//
// Approximation contract: every selected vertex had maximum span within
// distance 2 at selection time — the greedy invariant. On the repo's
// minor-excluded certificate families (bounded degeneracy) the measured size
// stays within a small constant of the sequential greedy oracle; that ratio
// is a pinned regression quantity (tests + bench_sessions' E22 baseline), not
// a proven theorem. The phase count is finite because the globally
// span-maximum vertex always selects itself, covering >= 1 new vertex.
//
// Determinism: span ties break by smaller vertex id; every cross-vertex
// effect merges at the sequential barrier — rounds/messages are
// bit-identical at every thread width and across transport ranks.
#pragma once

#include <string>
#include <vector>

#include "congest/workload.hpp"
#include "graph/rooted_tree.hpp"

namespace mns::congest {

/// Runs the span greedy to full coverage, one "span-phase" of `meter` per
/// selection phase, then convergecasts |D| over `tree` (the session
/// spanning tree).
[[nodiscard]] DomsetPayload span_greedy_dominating_set(const RootedTree& tree,
                                                       PhaseMeter& meter);

/// Sequential greedy oracle: repeatedly pick the vertex covering the most
/// still-uncovered vertices (ties: smaller id) — the reference bound for the
/// distributed result.
[[nodiscard]] std::vector<char> greedy_dominating_set(const Graph& g);

/// "" iff every vertex is in `in_set` or adjacent to a member.
[[nodiscard]] std::string verify_dominating_set(const Graph& g,
                                                const std::vector<char>& in_set);

}  // namespace mns::congest
