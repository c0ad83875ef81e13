// Low-diameter decomposition (LDD) by seeded exponential-delay ball growing
// — the second structural partition source next to the certificate families.
//
// Miller-Peng-Xu-style construction, discretized and derandomized by seed:
// every vertex draws a geometric start delay from a hash of (seed, vertex),
// then a multi-source BFS grows balls outward from the vertices whose delay
// expires first; a vertex joins the first ball to reach it. The result is a
// total partition into connected clusters whose hop radius is bounded by the
// delay cap O(log n / beta), with an expected beta-fraction of edges cut.
//
// Why it lives in core/: Chang and Barenboim-Elkin-Gavoille (PAPERS.md) make
// LDD the reusable primitive for symmetry-breaking on bounded-genus and
// minor-free graphs, and here it plays the same role the certificate's
// partitions play for shortcuts — SolverCore computes ONE decomposition per
// network (weight-independent, so every workload shares it) and feeds its
// partition through ShortcutEngine and the shortcut cache
// (SolveOptions::partition == PartitionSource::kLdd, DESIGN.md §13).
//
// Determinism contract: integer-only arithmetic on splitmix64 hashes — no
// std::log / libm in the per-vertex delay draw — so the decomposition is
// bit-identical across platforms, thread counts and transport ranks, and the
// committed bench baselines can pin its shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/partition.hpp"

namespace mns {

struct LddOptions {
  /// Cut parameter: each vertex's start delay is Geometric(beta), so balls
  /// have hop radius O(log n / beta) and an expected ~beta fraction of edges
  /// crosses clusters. Smaller beta = bigger, rounder clusters.
  double beta = 0.25;
  /// Seeds the per-vertex delay hashes; same seed = same decomposition.
  std::uint64_t seed = 1;
};

/// One decomposition: a total partition into connected clusters plus the
/// BFS growth forest that produced it (the forest is what intra-cluster
/// routing and SSSP cell distances reuse).
struct LddDecomposition {
  Partition parts;                    ///< cluster of every vertex (total)
  std::vector<VertexId> center;       ///< per part: the ball's center vertex
  std::vector<VertexId> parent;       ///< growth forest; kInvalidVertex at centers
  std::vector<EdgeId> parent_edge;    ///< edge to parent; kInvalidEdge at centers
  std::vector<int> depth;             ///< hop distance to the own center
  int radius = 0;                     ///< max depth — the construction charge
  EdgeId cut_edges = 0;               ///< edges whose endpoints differ in cluster
};

/// Deterministic seeded ball growing over the whole graph. Works on
/// disconnected graphs too (every component is covered by its own balls).
[[nodiscard]] LddDecomposition ldd_decompose(const Graph& g,
                                             const LddOptions& options = {});

/// Weighted distance from every vertex to its cluster center along the
/// growth forest (real path lengths — what approx SSSP uses as cell
/// distances so estimates never undershoot true distances).
[[nodiscard]] std::vector<Weight> ldd_forest_distances(
    const LddDecomposition& ldd, const Graph& g, const std::vector<Weight>& w);

/// "" iff the decomposition is internally consistent for `g`: the partition
/// is total and valid, every cluster's forest paths lead to its center with
/// correct depths, and radius/cut_edges match the structure.
[[nodiscard]] std::string validate_ldd(const Graph& g,
                                       const LddDecomposition& ldd);

}  // namespace mns
