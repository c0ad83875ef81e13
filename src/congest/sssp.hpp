// Distributed single-source shortest path — the third headline workload of
// the paper's abstract (MST, min-cut, *shortest path*), in the shortcut
// framework of Haeupler-Li-Zuzic [PODC 2018] (see also Ghaffari-Haeupler on
// shortcuts for dense-minor-free graphs).
//
// exact_sssp(): the lock-step distributed Bellman-Ford baseline on the
// VertexProgram engine. A node re-broadcasts its distance estimate whenever it
// improves; at quiescence every edge has been relaxed with final values, so
// the result is exact. Rounds equal the largest hop count over shortest
// paths — which adversarial weightings (a light serpentine route through a
// grid) push to Theta(n) even on networks of diameter O(1). That hop-count
// wall is exactly the gap the shortcut machinery closes.
//
// approx_sssp(): (1+eps)-approximate SSSP. Two ingredients:
//
//  1. Weight rounding/scaling: every weight is snapped UP onto a geometric
//     (1+eps) ladder, so w <= w' <= (1+eps) w PER EDGE. Distances computed
//     exactly under w' are a (1+eps)-approximation under w for every vertex,
//     regardless of path structure — the guarantee is by construction, not
//     by analysis of the schedule.
//  2. Shortcut-accelerated cluster jumps: the graph is partitioned into
//     weighted Voronoi cells seeded from the current wavefront (re-built per
//     scale phase as the wavefront outgrows the old cells — the same
//     repeated re-partition access pattern as Boruvka, but weight-driven;
//     source-independent stride cells are built once per run),
//     and short Bellman-Ford bursts are interleaved with part-wise min
//     aggregations over the source's shortcut: each cell aggregates
//     min_v(dist[v] + cdist[v]) (cdist = intra-cell distance to the cell
//     seed) and every member u relaxes dist[u] <= min + cdist[u]. A jump
//     propagates a distance across an entire cell in shortcut-quality many
//     rounds instead of cell-hop-count many, while every estimate remains
//     the length of a real path (entry -> seed -> u), so estimates never
//     drop below the true distance. The run continues to global quiescence,
//     i.e. to the exact fixed point under w' — the (1+eps) guarantee of the
//     rounding therefore always holds; the jumps only change how many rounds
//     it takes to get there. Only cell minima seed a jump, and the run ends
//     at the first burst that leaves the frontier empty.
//
// Round accounting (the DESIGN.md §2-§3 substitution discipline, as in
// mincut): Bellman-Ford rounds and aggregation rounds are honestly
// simulated; the per-phase Voronoi/cdist construction is computed centrally
// and charged as the hop depth of the Voronoi forest — the rounds a
// distributed Bellman-Ford-style cell growth would take — through the
// PhaseMeter, and only for FRESH partitions (a session cache hit means the
// cells and their shortcut were already paid for).
// Internal engine of Session::solve(ApproxSssp) — user code goes through
// congest::Session.
#pragma once

#include "congest/shortcut_source.hpp"
#include "congest/workload.hpp"
#include "core/ldd.hpp"
#include "graph/algorithms.hpp"

namespace mns::congest {

/// Exact lock-step Bellman-Ford (the baseline). Requires non-negative
/// weights; vertices unreachable from q.source keep kUnreachedWeight. No
/// phases, so `meter` emits nothing.
[[nodiscard]] SsspPayload exact_sssp(const ExactSssp& q, PhaseMeter& meter);

/// (1+eps)-approximate SSSP: geometric weight rounding + shortcut-based
/// cluster jumps over `shortcuts`, run to quiescence (exact under the rounded
/// weights). Requires strictly positive weights and a connected network
/// (the shortcut machinery's standing assumption). Guarantees, for every v:
///   d(v) <= result.dist[v] <= (1+q.epsilon) d(v).
/// Each partition is one "scale-phase" of `meter`, its build charge
/// included. Non-null `fixed_cells` pins the cells to that low-diameter
/// decomposition for the whole run (the kLdd partition source, DESIGN.md
/// §13): they never repartition, cdist becomes the LDD forest distance to
/// the cluster center under the rounded weights (real path lengths, so
/// estimates still never undershoot), and a fresh construction charges
/// radius + 1 rounds. It overrides q.wavefront_seeds and q.num_seeds and
/// must outlive the call.
[[nodiscard]] SsspPayload approx_sssp(
    const ApproxSssp& q, const ShortcutSource& shortcuts, PhaseMeter& meter,
    const LddDecomposition* fixed_cells = nullptr);

/// The rounding ladder used by approx_sssp: every weight snapped up to the
/// next representative, with w <= rounded <= (1+epsilon) w per edge.
/// Exposed for tests/benches.
[[nodiscard]] std::vector<Weight> round_weights(const std::vector<Weight>& w,
                                                double epsilon);

}  // namespace mns::congest
