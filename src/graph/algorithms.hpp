// Graph traversals and measurements used across the library: BFS trees,
// connectivity, eccentricity/diameter, and induced subgraphs with vertex maps.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace mns {

inline constexpr int kUnreached = std::numeric_limits<int>::max();

/// Output of a (multi-source) breadth-first search.
struct BfsResult {
  /// Hop distance from the nearest source, kUnreached if disconnected.
  std::vector<int> dist;
  /// BFS-tree parent, kInvalidVertex for sources/unreached vertices.
  std::vector<VertexId> parent;
  /// Edge to parent, kInvalidEdge for sources/unreached vertices.
  std::vector<EdgeId> parent_edge;
  /// Which source claimed each vertex (ties by BFS order), kInvalidVertex if
  /// unreached. For single-source BFS this is the source everywhere reached.
  std::vector<VertexId> source;

  [[nodiscard]] bool reached(VertexId v) const { return dist[v] != kUnreached; }
  /// Max finite distance (0 for empty source sets on empty graphs).
  [[nodiscard]] int max_distance() const;
};

[[nodiscard]] BfsResult bfs(const Graph& g, VertexId source);
[[nodiscard]] BfsResult bfs_multi(const Graph& g,
                                  std::span<const VertexId> sources);

/// Weighted distance of an unreachable vertex.
inline constexpr Weight kUnreachedWeight = std::numeric_limits<Weight>::max();

/// Output of a (multi-source) weighted shortest-path computation.
struct ShortestPathResult {
  /// Weighted distance from the nearest source, kUnreachedWeight if
  /// disconnected.
  std::vector<Weight> dist;
  /// Shortest-path-tree parent, kInvalidVertex for sources/unreached.
  std::vector<VertexId> parent;
  /// Edge to parent, kInvalidEdge for sources/unreached.
  std::vector<EdgeId> parent_edge;
  /// Which source claimed each vertex (ties by (distance, source id)),
  /// kInvalidVertex if unreached.
  std::vector<VertexId> source;
  /// Hop count of the recorded shortest path, kUnreached if unreached.
  std::vector<int> hops;

  [[nodiscard]] bool reached(VertexId v) const {
    return dist[v] != kUnreachedWeight;
  }
  /// Deepest recorded path (0 when nothing is reached beyond the sources).
  [[nodiscard]] int max_hops() const;
};

/// Sequential Dijkstra — the verification oracle for every distributed SSSP
/// in src/congest. Requires non-negative weights, one per edge.
[[nodiscard]] ShortestPathResult dijkstra(const Graph& g,
                                          const std::vector<Weight>& w,
                                          VertexId source);

/// Multi-source Dijkstra: every vertex joins its closest source (ties broken
/// by smaller source id, so the claimed regions — weighted Voronoi cells —
/// are connected and the recorded parent path to the owning source stays
/// inside the cell). With `hop_cap >= 0` growth stops at that hop depth and
/// everything further stays unreached — the hop-capped Voronoi cells of the
/// approximate-SSSP scale phases (the cap bounds the rounds a distributed
/// cell growth would take).
[[nodiscard]] ShortestPathResult dijkstra_multi(
    const Graph& g, const std::vector<Weight>& w,
    std::span<const VertexId> sources, int hop_cap = -1);

/// Component labels in [0, count) and the component count.
struct Components {
  std::vector<VertexId> label;
  VertexId count = 0;
};
[[nodiscard]] Components connected_components(const Graph& g);
[[nodiscard]] bool is_connected(const Graph& g);

/// True if `subset` induces a connected subgraph of g (empty -> true).
[[nodiscard]] bool is_connected_subset(const Graph& g,
                                       std::span<const VertexId> subset);

/// Max hop distance from v (graph must be connected from v).
[[nodiscard]] int eccentricity(const Graph& g, VertexId v);

/// Exact diameter via all-pairs BFS. O(n·m) — for tests and small graphs.
[[nodiscard]] int diameter_exact(const Graph& g);

/// A vertex of (approximately) minimum eccentricity found by double sweep +
/// midpoint; used to root BFS spanning trees with height close to D/2..D.
[[nodiscard]] VertexId approximate_center(const Graph& g, Rng& rng);

/// An induced subgraph together with its vertex translation maps.
struct InducedSubgraph {
  Graph graph;
  /// local vertex -> vertex of the parent graph.
  std::vector<VertexId> to_parent;
  /// parent vertex -> local vertex or kInvalidVertex.
  std::vector<VertexId> to_local;
  /// local edge -> edge id in the parent graph.
  std::vector<EdgeId> edge_to_parent;
};
[[nodiscard]] InducedSubgraph induced_subgraph(
    const Graph& g, std::span<const VertexId> vertices);

}  // namespace mns
