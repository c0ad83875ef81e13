// Tests for the O(D) CONGEST primitives: convergecast_sum — correctness and
// round counts on grids, planar triangulations and a single vertex.
#include <gtest/gtest.h>

#include <numeric>

#include "congest/primitives.hpp"
#include "congest/simulator.hpp"
#include "gen/basic.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"

namespace mns {
namespace {

using congest::Simulator;

RootedTree bfs_tree(const Graph& g, VertexId root) {
  return RootedTree::from_bfs(bfs(g, root), root);
}

TEST(Convergecast, SumArrivesAtRootInHeightRounds) {
  Graph g = gen::grid(7, 7).graph();
  RootedTree t = bfs_tree(g, 24);  // center-ish root
  std::vector<std::int64_t> values(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) values[v] = 1000 + v * 3;
  values[13] = -42;
  Simulator sim(g);
  congest::ConvergecastSumResult r = congest::convergecast_sum(sim, t, values);
  EXPECT_EQ(r.sum_at_root,
            std::accumulate(values.begin(), values.end(), std::int64_t{0}));
  // Leaves report in round 1, and a node one round after its deepest child:
  // the root hears its last child in round height().
  EXPECT_EQ(r.rounds, t.height());
  EXPECT_EQ(sim.rounds(), t.height());
  // One report per non-root vertex.
  EXPECT_EQ(sim.messages_sent(), g.num_vertices() - 1);
}

TEST(Convergecast, SingleVertexTree) {
  Graph g = GraphBuilder(1).build();
  RootedTree t(0, {kInvalidVertex});
  Simulator sim(g);
  congest::ConvergecastSumResult r = congest::convergecast_sum(sim, t, {5});
  EXPECT_EQ(r.sum_at_root, 5);
  EXPECT_EQ(r.rounds, 0);
}

TEST(Convergecast, RejectsSizeMismatch) {
  Graph g = gen::path(4);
  RootedTree t = bfs_tree(g, 0);
  Simulator sim(g);
  std::vector<std::int64_t> too_short{1, 2};
  EXPECT_THROW((void)congest::convergecast_sum(sim, t, too_short),
               InvariantViolation);
}

class PrimitiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrimitiveSweep, ConvergecastSumMatchesSequentialSum) {
  Rng rng(GetParam());
  EmbeddedGraph eg = gen::random_maximal_planar(150, rng);
  const Graph& g = eg.graph();
  RootedTree t = bfs_tree(g, 0);
  Simulator sim(g);
  std::vector<std::int64_t> values(g.num_vertices());
  std::int64_t expect = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    values[v] = static_cast<std::int64_t>((v * 2654435761u) % 100003);
    expect += values[v];
  }
  auto up = congest::convergecast_sum(sim, t, values);
  EXPECT_EQ(up.sum_at_root, expect);
  EXPECT_EQ(up.rounds, t.height());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimitiveSweep, ::testing::Values(2, 6, 10));

}  // namespace
}  // namespace mns
