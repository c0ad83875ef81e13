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
//     repeated re-partition access pattern as Boruvka, but weight-driven),
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
//     it takes to get there.
//
// Round accounting (the DESIGN.md §2-§3 substitution discipline, as in
// mincut): Bellman-Ford rounds and aggregation rounds are honestly
// simulated; the per-phase Voronoi/cdist construction is computed centrally
// and charged as the hop depth of the Voronoi forest — the rounds a
// distributed Bellman-Ford-style cell growth would take — recorded in
// charged_construction_rounds, and only for FRESH partitions (a session
// cache hit means the cells and their shortcut were already paid for).
// Internal engine of Session::solve(ApproxSssp) — user code goes through
// congest::Session.
#pragma once

#include "congest/shortcut_source.hpp"
#include "congest/simulator.hpp"
#include "core/ldd.hpp"
#include "graph/algorithms.hpp"

namespace mns::congest {

struct SsspResult {
  /// Weighted distance from the source under the (possibly rounded) weights;
  /// kUnreachedWeight for vertices in other components.
  std::vector<Weight> dist;
  long long rounds = 0;  ///< measured rounds consumed
  /// Voronoi cell-growth charges for freshly built partitions (DESIGN.md
  /// §2-§3); kept out of `rounds` so cached and cold runs measure
  /// identically. Always 0 for exact_sssp.
  long long charged_construction_rounds = 0;
  int phases = 0;       ///< scale phases (re-partitions); approx only
  long long jumps = 0;  ///< part-wise aggregations performed; approx only

  [[nodiscard]] long long total_rounds() const {
    return rounds + charged_construction_rounds;
  }
};

/// Exact lock-step Bellman-Ford (the baseline). Requires non-negative
/// weights; vertices unreachable from `source` keep kUnreachedWeight.
[[nodiscard]] SsspResult exact_sssp(Simulator& sim,
                                    const std::vector<Weight>& w,
                                    VertexId source);

struct ApproxSsspOptions {
  /// Shortcut source for the per-phase wavefront partitions (Session::solve
  /// wires the session cache in here).
  ShortcutSource source;
  /// Approximation slack: returned distances are within (1+epsilon) of true.
  double epsilon = 0.25;
  /// Voronoi cells per phase; 0 = ceil(sqrt(n)).
  VertexId num_seeds = 0;
  /// Re-partition once this fraction of vertices joined the wavefront since
  /// the current partition was built (the scale-phase trigger).
  double repartition_growth = 0.5;
  /// true: cells are seeded from the current wavefront (adapts to the query;
  /// partitions differ per source). false: a deterministic stride spread
  /// that depends only on the network — the SAME partition for every source,
  /// so a Session's shortcut cache serves k-source query batches with one
  /// construction (DESIGN.md §5).
  bool wavefront_seeds = true;
  /// Non-null: pin the cells to this low-diameter decomposition for the
  /// whole run (the kLdd partition source, DESIGN.md §13). The cells never
  /// repartition; cdist becomes the LDD forest distance to the cluster
  /// center under the rounded weights (real path lengths, so estimates
  /// still never undershoot), and a fresh construction charges radius + 1
  /// rounds — once per core, since every run resolves to the same cached
  /// shortcut. Overrides wavefront_seeds/num_seeds. Must outlive the call.
  const LddDecomposition* fixed_cells = nullptr;
  /// Optional per-scale-phase telemetry (stage = "scale-phase").
  RoundTraceHook trace;
};

/// (1+eps)-approximate SSSP: geometric weight rounding + shortcut-based
/// cluster jumps, run to quiescence (exact under the rounded weights).
/// Requires strictly positive weights and a connected network (the shortcut
/// machinery's standing assumption). Guarantees, for every v:
///   d(v) <= result.dist[v] <= (1+epsilon) d(v).
[[nodiscard]] SsspResult approx_sssp(Simulator& sim,
                                     const std::vector<Weight>& w,
                                     VertexId source,
                                     const ApproxSsspOptions& options);

/// The rounding ladder used by approx_sssp: every weight snapped up to the
/// next representative, with w <= rounded <= (1+epsilon) w per edge.
/// Exposed for tests/benches.
[[nodiscard]] std::vector<Weight> round_weights(const std::vector<Weight>& w,
                                                double epsilon);

}  // namespace mns::congest
