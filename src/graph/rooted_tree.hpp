// Rooted spanning trees with LCA and ancestor queries.
//
// The shortcut framework (Definitions 10-13) measures everything against a
// rooted spanning tree T of the network; this class is that tree. It is built
// either from a BfsResult (giving a BFS tree of height <= D) or from explicit
// parent arrays (e.g. the "repaired" trees T^2_h of Theorem 7's proof).
#pragma once

#include <span>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"

namespace mns {

class RootedTree {
 public:
  /// Builds from explicit parent pointers. parent[root] == kInvalidVertex.
  /// parent_edge[v] may be kInvalidEdge throughout if the tree is not tied to
  /// graph edge ids (pass empty to default).
  RootedTree(VertexId root, std::vector<VertexId> parent,
             std::vector<EdgeId> parent_edge = {});

  /// Builds the BFS tree of a connected graph rooted at `bfs.source` vertices'
  /// tree. Requires the BFS to have reached every vertex.
  static RootedTree from_bfs(const BfsResult& bfs, VertexId root);

  [[nodiscard]] VertexId root() const noexcept { return root_; }
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(parent_.size());
  }
  [[nodiscard]] VertexId parent(VertexId v) const { return parent_[v]; }
  [[nodiscard]] EdgeId parent_edge(VertexId v) const { return parent_edge_[v]; }
  [[nodiscard]] int depth(VertexId v) const { return depth_[v]; }
  /// Max depth over all vertices (the tree's height).
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] std::span<const VertexId> children(VertexId v) const {
    return {children_flat_.data() + child_offset_[v],
            children_flat_.data() + child_offset_[v + 1]};
  }
  /// Vertices in preorder (root first; children after parents).
  [[nodiscard]] const std::vector<VertexId>& preorder() const noexcept {
    return preorder_;
  }

  [[nodiscard]] bool is_ancestor(VertexId anc, VertexId v) const {
    return tin_[anc] <= tin_[v] && tout_[v] <= tout_[anc];
  }
  [[nodiscard]] VertexId lca(VertexId u, VertexId v) const;
  /// Ancestor of v that is k levels up (k <= depth(v)).
  [[nodiscard]] VertexId kth_ancestor(VertexId v, int k) const;

 private:
  void build_structures();

  VertexId root_ = kInvalidVertex;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<int> depth_;
  int height_ = 0;
  std::vector<VertexId> preorder_;
  std::vector<std::size_t> child_offset_;
  std::vector<VertexId> children_flat_;
  std::vector<int> tin_, tout_;
  std::vector<std::vector<VertexId>> up_;  // binary lifting table
};

}  // namespace mns
