#include "graph/rooted_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace mns {

RootedTree::RootedTree(VertexId root, std::vector<VertexId> parent,
                       std::vector<EdgeId> parent_edge)
    : root_(root),
      parent_(std::move(parent)),
      parent_edge_(std::move(parent_edge)) {
  const VertexId n = static_cast<VertexId>(parent_.size());
  if (root < 0 || root >= n)
    throw std::invalid_argument("RootedTree: root out of range");
  if (parent_[root] != kInvalidVertex)
    throw std::invalid_argument("RootedTree: root must have no parent");
  if (parent_edge_.empty()) parent_edge_.assign(n, kInvalidEdge);
  if (static_cast<VertexId>(parent_edge_.size()) != n)
    throw std::invalid_argument("RootedTree: parent_edge size mismatch");
  build_structures();
}

RootedTree RootedTree::from_bfs(const BfsResult& bfs, VertexId root) {
  const VertexId n = static_cast<VertexId>(bfs.dist.size());
  for (VertexId v = 0; v < n; ++v)
    if (!bfs.reached(v))
      throw std::invalid_argument("RootedTree::from_bfs: unreached vertex");
  if (bfs.parent[root] != kInvalidVertex || bfs.dist[root] != 0)
    throw std::invalid_argument("RootedTree::from_bfs: root is not a source");
  return RootedTree(root, bfs.parent, bfs.parent_edge);
}

void RootedTree::build_structures() {
  const VertexId n = num_vertices();
  // Children lists (CSR).
  std::vector<std::size_t> cnt(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v)
    if (v != root_) {
      if (parent_[v] < 0 || parent_[v] >= n)
        throw std::invalid_argument("RootedTree: bad parent pointer");
      ++cnt[static_cast<std::size_t>(parent_[v]) + 1];
    }
  child_offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v)
    child_offset_[static_cast<std::size_t>(v) + 1] =
        child_offset_[v] + cnt[static_cast<std::size_t>(v) + 1];
  children_flat_.resize(child_offset_[static_cast<std::size_t>(n)]);
  {
    std::vector<std::size_t> cur(child_offset_.begin(),
                                 child_offset_.end() - 1);
    for (VertexId v = 0; v < n; ++v)
      if (v != root_) children_flat_[cur[parent_[v]]++] = v;
  }

  // Iterative preorder and depth; also validates tree-ness.
  depth_.assign(n, -1);
  preorder_.clear();
  preorder_.reserve(n);
  std::vector<VertexId> stack{root_};
  depth_[root_] = 0;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    preorder_.push_back(v);
    for (VertexId c : children(v)) {
      if (depth_[c] != -1)
        throw std::invalid_argument("RootedTree: parent array has a cycle");
      depth_[c] = depth_[v] + 1;
      stack.push_back(c);
    }
  }
  if (static_cast<VertexId>(preorder_.size()) != n)
    throw std::invalid_argument("RootedTree: parent array is disconnected");
  height_ = *std::max_element(depth_.begin(), depth_.end());

  // Euler intervals: tin = preorder position; tout = tin + subtree size - 1
  // works for preorder numbering within subtrees.
  std::vector<VertexId> size(static_cast<std::size_t>(n), 1);
  for (auto it = preorder_.rbegin(); it != preorder_.rend(); ++it)
    if (*it != root_) size[parent_[*it]] += size[*it];
  tin_.assign(n, 0);
  tout_.assign(n, 0);
  {
    int timer = 0;
    for (VertexId v : preorder_) tin_[v] = timer++;
    for (VertexId v = 0; v < n; ++v)
      tout_[v] = tin_[v] + size[v] - 1;
  }

  // Binary lifting.
  int levels = 1;
  while ((1 << levels) < std::max(2, height_ + 1)) ++levels;
  up_.assign(levels, std::vector<VertexId>(n));
  for (VertexId v = 0; v < n; ++v)
    up_[0][v] = (v == root_) ? root_ : parent_[v];
  for (int k = 1; k < levels; ++k)
    for (VertexId v = 0; v < n; ++v) up_[k][v] = up_[k - 1][up_[k - 1][v]];
}

VertexId RootedTree::lca(VertexId u, VertexId v) const {
  if (is_ancestor(u, v)) return u;
  if (is_ancestor(v, u)) return v;
  for (int k = static_cast<int>(up_.size()) - 1; k >= 0; --k)
    if (!is_ancestor(up_[k][u], v)) u = up_[k][u];
  return up_[0][u];
}

VertexId RootedTree::kth_ancestor(VertexId v, int k) const {
  if (k > depth_[v])
    throw std::invalid_argument("kth_ancestor: k exceeds depth");
  for (int bit = 0; k > 0; ++bit, k >>= 1)
    if (k & 1) v = up_[bit][v];
  return v;
}

}  // namespace mns
