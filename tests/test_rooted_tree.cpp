// Tests for RootedTree: construction, LCA, ancestors.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/rooted_tree.hpp"

namespace mns {
namespace {

// A fixed tree: 0 -> {1, 2}; 1 -> {3, 4}; 2 -> {5}; 3 -> {6}; 5 -> {7, 8}.
RootedTree sample_tree() {
  std::vector<VertexId> parent{kInvalidVertex, 0, 0, 1, 1, 2, 3, 5, 5};
  return RootedTree(0, parent);
}

TEST(RootedTree, DepthsAndHeight) {
  RootedTree t = sample_tree();
  EXPECT_EQ(t.depth(0), 0);
  EXPECT_EQ(t.depth(4), 2);
  EXPECT_EQ(t.depth(6), 3);
  EXPECT_EQ(t.height(), 3);
  EXPECT_EQ(t.root(), 0);
}

TEST(RootedTree, ChildrenAndSubtreeSizes) {
  RootedTree t = sample_tree();
  auto kids = t.children(1);
  EXPECT_EQ(std::vector<VertexId>(kids.begin(), kids.end()),
            (std::vector<VertexId>{3, 4}));
  // Subtree sizes, read off the Euler intervals they build.
  auto size_below = [&](VertexId a) {
    int size = 0;
    for (VertexId v = 0; v < t.num_vertices(); ++v) size += t.is_ancestor(a, v);
    return size;
  };
  EXPECT_EQ(size_below(0), 9);
  EXPECT_EQ(size_below(1), 4);
  EXPECT_EQ(size_below(5), 3);
  EXPECT_EQ(size_below(6), 1);
}

TEST(RootedTree, PreorderParentsFirst) {
  RootedTree t = sample_tree();
  std::vector<int> position(9);
  const auto& pre = t.preorder();
  ASSERT_EQ(pre.size(), 9u);
  for (int i = 0; i < 9; ++i) position[pre[i]] = i;
  for (VertexId v = 1; v < 9; ++v)
    EXPECT_LT(position[t.parent(v)], position[v]);
}

TEST(RootedTree, AncestorQueries) {
  RootedTree t = sample_tree();
  EXPECT_TRUE(t.is_ancestor(0, 6));
  EXPECT_TRUE(t.is_ancestor(1, 6));
  EXPECT_TRUE(t.is_ancestor(6, 6));
  EXPECT_FALSE(t.is_ancestor(2, 6));
  EXPECT_FALSE(t.is_ancestor(6, 1));
}

TEST(RootedTree, Lca) {
  RootedTree t = sample_tree();
  EXPECT_EQ(t.lca(6, 4), 1);
  EXPECT_EQ(t.lca(6, 7), 0);
  EXPECT_EQ(t.lca(7, 8), 5);
  EXPECT_EQ(t.lca(3, 3), 3);
  EXPECT_EQ(t.lca(0, 8), 0);
}

TEST(RootedTree, KthAncestor) {
  RootedTree t = sample_tree();
  EXPECT_EQ(t.kth_ancestor(6, 0), 6);
  EXPECT_EQ(t.kth_ancestor(6, 1), 3);
  EXPECT_EQ(t.kth_ancestor(6, 2), 1);
  EXPECT_EQ(t.kth_ancestor(6, 3), 0);
  EXPECT_THROW((void)t.kth_ancestor(6, 4), std::invalid_argument);
}

TEST(RootedTree, RejectsBadInput) {
  // Cycle.
  std::vector<VertexId> cyc{kInvalidVertex, 2, 1};
  EXPECT_THROW(RootedTree(0, cyc), std::invalid_argument);
  // Root with a parent.
  std::vector<VertexId> rooted{1, kInvalidVertex};
  EXPECT_THROW(RootedTree(0, rooted), std::invalid_argument);
  // Root out of range.
  EXPECT_THROW(RootedTree(5, std::vector<VertexId>{kInvalidVertex}),
               std::invalid_argument);
}

TEST(RootedTree, FromBfsBindsEdges) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 4);
  b.add_edge(3, 4);  // non-tree edge
  Graph g = b.build();
  BfsResult r = bfs(g, 0);
  RootedTree t = RootedTree::from_bfs(r, 0);
  EXPECT_EQ(t.height(), 2);
  for (VertexId v = 1; v < 5; ++v) {
    EXPECT_EQ(g.other_endpoint(t.parent_edge(v), v), t.parent(v));
  }
}

TEST(RootedTree, FromBfsRejectsUnreached) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  Graph g = b.build();
  BfsResult r = bfs(g, 0);
  EXPECT_THROW(RootedTree::from_bfs(r, 0), std::invalid_argument);
}

// Property sweep: LCA via binary lifting agrees with the naive walk-up LCA
// on random BFS trees.
class TreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TreePropertyTest, LcaMatchesNaive) {
  Rng rng(GetParam());
  const VertexId n = 300;
  GraphBuilder b(n);
  // Random tree by attaching each vertex to a random earlier vertex.
  for (VertexId v = 1; v < n; ++v) {
    std::uniform_int_distribution<VertexId> pick(0, v - 1);
    b.add_edge(pick(rng), v);
  }
  Graph g = b.build();
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);

  auto naive_lca = [&](VertexId u, VertexId v) {
    while (u != v) {
      if (t.depth(u) < t.depth(v))
        v = t.parent(v);
      else
        u = t.parent(u);
    }
    return u;
  };
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  for (int i = 0; i < 200; ++i) {
    VertexId u = pick(rng), v = pick(rng);
    EXPECT_EQ(t.lca(u, v), naive_lca(u, v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePropertyTest,
                         ::testing::Values(11, 23, 37, 58, 71));

}  // namespace
}  // namespace mns
