// Tests for the CONGEST simulator and distributed algorithms: capacity
// enforcement, BFS round counts, part-wise aggregation correctness and its
// shortcut speedup (Theorem 1's mechanism), Boruvka MST == Kruskal,
// controlled-GHS == Kruskal, and min-cut approximation vs Stoer-Wagner.
// All workload traffic goes through congest::Session (the one solver API);
// the aggregation primitive and the simulator keep their direct tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "congest/aggregation.hpp"
#include "congest/mincut.hpp"
#include "congest/mst.hpp"
#include "congest/session.hpp"
#include "congest/simulator.hpp"
#include "core/shortcut_engine.hpp"
#include "gen/basic.hpp"
#include "gen/lk_family.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "graph/algorithms.hpp"

namespace mns {
namespace {

using congest::AggValue;
using congest::Message;
using congest::RunReport;
using congest::Session;
using congest::Simulator;

RootedTree bfs_tree(const Graph& g, VertexId root) {
  return RootedTree::from_bfs(bfs(g, root), root);
}

Session greedy_session(const Graph& g) {
  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(12345);
  return Session(g, greedy_certificate(), std::move(cfg));
}

TEST(Simulator, EnforcesDirectedEdgeCapacity) {
  Graph g = gen::path(3);
  Simulator sim(g);
  EdgeId e = g.find_edge(0, 1);
  sim.send(0, e, Message{});
  EXPECT_THROW(sim.send(0, e, Message{}), std::invalid_argument);
  sim.send(1, e, Message{});  // opposite direction is fine
  sim.finish_round();
  sim.send(0, e, Message{});  // next round resets capacity
  sim.finish_round();
  EXPECT_EQ(sim.rounds(), 2);
  EXPECT_EQ(sim.messages_sent(), 3);
}

TEST(Simulator, RejectsSendFromNonEndpoint) {
  Graph g = gen::path(3);
  Simulator sim(g);
  EdgeId e = g.find_edge(0, 1);
  EXPECT_THROW(sim.send(2, e, Message{}), std::invalid_argument);
}

TEST(Simulator, DeliversToInboxNextRound) {
  Graph g = gen::path(2);
  Simulator sim(g);
  sim.send(0, 0, Message{7, 8, 9});
  EXPECT_TRUE(sim.inbox(1).empty());
  sim.finish_round();
  auto in = sim.inbox(1);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].from, 0);
  EXPECT_EQ(in[0].msg.tag, 7);
  EXPECT_EQ(in[0].msg.aux, 8);
  EXPECT_EQ(in[0].msg.value, 9);
}

TEST(DistributedBfs, RoundsTrackEccentricity) {
  Graph g = gen::grid(7, 9).graph();
  Session s = greedy_session(g);
  RunReport r = s.solve(congest::Bfs{0});
  BfsResult ref = bfs(g, 0);
  EXPECT_EQ(r.bfs().dist, ref.dist);
  EXPECT_LE(r.rounds, ref.max_distance() + 1);
  EXPECT_GE(r.rounds, ref.max_distance());
  RootedTree t(0, r.bfs().parent, r.bfs().parent_edge);
  EXPECT_EQ(t.height(), ref.max_distance());
}

TEST(DistributedBfs, RootOutOfRangeThrows) {
  Session s = greedy_session(gen::grid(3, 3).graph());
  EXPECT_THROW((void)s.solve(congest::Bfs{9}), InvariantViolation);
  EXPECT_THROW((void)s.solve(congest::Bfs{-1}), InvariantViolation);
}

TEST(Aggregation, SinglePartFloodsMin) {
  Graph g = gen::cycle(10);
  Partition p = Partition::from_parts(10, {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}});
  Shortcut sc;
  sc.edges_of_part.resize(1);
  congest::PartwiseAggregator agg(g, p, sc);
  Simulator sim(g);
  std::vector<AggValue> init(10);
  for (VertexId v = 0; v < 10; ++v) init[v] = AggValue{100 - v, v};
  auto res = agg.aggregate_min(sim, init);
  EXPECT_EQ(res.min_of_part[0].value, 91);
  EXPECT_EQ(res.min_of_part[0].aux, 9);
  // Flooding a cycle takes about half the cycle length.
  EXPECT_GE(res.rounds, 4);
  EXPECT_LE(res.rounds, 12);
}

TEST(Aggregation, MultiplePartsIndependentMins) {
  Graph g = gen::grid(6, 6).graph();
  Rng rng(3);
  Partition p = voronoi_partition(g, 5, rng);
  RootedTree t = bfs_tree(g, 0);
  Shortcut sc =
      ShortcutEngine::global().build(g, t, p, greedy_certificate()).shortcut;
  congest::PartwiseAggregator agg(g, p, sc);
  Simulator sim(g);
  std::vector<AggValue> init(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    init[v] = AggValue{v * 3 + 1, v};
  auto res = agg.aggregate_min(sim, init);
  for (PartId q = 0; q < p.num_parts(); ++q) {
    AggValue expect{std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::int32_t>::max()};
    for (VertexId v : p.members(q)) expect = std::min(expect, init[v]);
    EXPECT_EQ(res.min_of_part[q], expect) << "part " << q;
  }
}

TEST(Aggregation, WheelShortcutBeatsNoShortcut) {
  // The paper's motivating wheel example: ring sectors have Theta(n)
  // isolated diameter, so no-shortcut aggregation needs Theta(n) rounds
  // while apex-aware shortcuts bring it down to O(1)-ish.
  const VertexId n = 402;
  Graph g = gen::wheel(n);
  Partition p = ring_sectors(n, 1, n - 1, 4);
  RootedTree t = bfs_tree(g, 0);

  Shortcut empty;
  empty.edges_of_part.resize(p.num_parts());
  congest::PartwiseAggregator slow(g, p, empty);
  Simulator sim1(g);
  std::vector<AggValue> init(n);
  for (VertexId v = 0; v < n; ++v) init[v] = AggValue{1000 + v, v};
  auto res1 = slow.aggregate_min(sim1, init);

  Shortcut sc =
      ShortcutEngine::global().build(g, t, p, apex_certificate({0})).shortcut;
  congest::PartwiseAggregator fast(g, p, sc);
  Simulator sim2(g);
  auto res2 = fast.aggregate_min(sim2, init);

  EXPECT_EQ(res1.min_of_part[0], res2.min_of_part[0]);
  EXPECT_GE(res1.rounds, (n - 1) / 4 / 2);  // ~ sector length / 2
  EXPECT_LE(res2.rounds, res1.rounds / 3);  // must be much faster
}

TEST(Aggregation, RejectsWrongSizes) {
  Graph g = gen::path(4);
  Partition p = Partition::from_parts(4, {{0, 1}});
  Shortcut sc;  // wrong: 0 parts
  EXPECT_THROW(congest::PartwiseAggregator(g, p, sc), InvariantViolation);
  // A partition sized for another graph (fewer vertices than g) must be
  // refused before its per-vertex map is read.
  Partition short_p(std::vector<PartId>(3, 0));
  Shortcut one;
  one.edges_of_part.resize(1);
  EXPECT_THROW(congest::PartwiseAggregator(g, short_p, one),
               InvariantViolation);
}

TEST(Kruskal, MatchesKnownMst) {
  Graph g = gen::cycle(4);
  // Weights: edge {0,1}=1, {0,3}=4, {1,2}=2, {2,3}=3 (build order sorted).
  std::vector<Weight> w(g.num_edges());
  w[g.find_edge(0, 1)] = 1;
  w[g.find_edge(1, 2)] = 2;
  w[g.find_edge(2, 3)] = 3;
  w[g.find_edge(0, 3)] = 4;
  std::vector<EdgeId> mst = congest::kruskal_mst(g, w);
  std::set<EdgeId> ms(mst.begin(), mst.end());
  EXPECT_EQ(ms.size(), 3u);
  EXPECT_FALSE(ms.count(g.find_edge(0, 3)));
}

class MstSweep : public ::testing::TestWithParam<int> {};

TEST_P(MstSweep, BoruvkaMatchesKruskalOnRandomPlanar) {
  Rng rng(GetParam());
  EmbeddedGraph eg = gen::random_maximal_planar(120, rng);
  const Graph& g = eg.graph();
  std::vector<Weight> w = gen::unique_random_weights(g, rng);
  Session s = greedy_session(g);
  RunReport res = s.solve(congest::Mst{w});
  std::vector<EdgeId> ref = congest::kruskal_mst(g, w);
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(res.mst().edges, ref);
  EXPECT_GE(res.rounds, 1);
  EXPECT_LE(res.phases, 20);
  // Boruvka revisits each new partition (dissemination, then next phase):
  // the session cache must see hits even within one run.
  EXPECT_GT(res.cache_hits, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(Mst, NoShortcutBaselineAlsoCorrect) {
  Rng rng(9);
  Graph g = gen::grid(8, 8).graph();
  std::vector<Weight> w = gen::unique_random_weights(g, rng);
  Session s = greedy_session(g);
  congest::SolveOptions flooding;
  flooding.use_shortcuts = false;
  RunReport res = s.solve(congest::Mst{w}, flooding);
  std::vector<EdgeId> ref = congest::kruskal_mst(g, w);
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(res.mst().edges, ref);
  // Nothing constructed, nothing charged, nothing cached.
  EXPECT_EQ(res.charged_construction_rounds, 0);
  EXPECT_EQ(res.cache_misses, 0);
}

TEST(Mst, WorksOnLkSample) {
  Rng rng(11);
  gen::AlmostEmbeddableParams bp;
  bp.rows = 5;
  bp.cols = 5;
  bp.apices = 1;
  gen::LkSample s = gen::random_lk_graph(4, bp, 2, 0.0, rng);
  std::vector<Weight> w = gen::unique_random_weights(s.graph, rng);
  // End-to-end Theorem 6 pipeline as the session certificate.
  CliqueSumCertificate cert{s.decomposition};
  cert.apex_aware = true;
  cert.bag_apices = s.global_apices;
  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(7);
  Session session(s.graph, std::move(cert), std::move(cfg));
  RunReport res = session.solve(congest::Mst{w});
  std::vector<EdgeId> ref = congest::kruskal_mst(s.graph, w);
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(res.mst().edges, ref);
}

TEST(Mst, StopAtFragmentSizeHaltsEarly) {
  Rng rng(21);
  Graph g = gen::grid(10, 10).graph();
  std::vector<Weight> w = gen::unique_random_weights(g, rng);
  Simulator sim(g);
  RunReport report;
  congest::PhaseMeter meter(sim, report);
  const congest::MstPayload res = congest::boruvka_mst(
      w, congest::empty_shortcut_source(), meter, /*stop_at_fragment_size=*/10);
  // Not a full MST; every fragment has >= 10 vertices and the chosen edges
  // are a subset of the true MST.
  std::vector<PartId> frag = res.fragment_of;
  std::vector<int> size(*std::max_element(frag.begin(), frag.end()) + 1, 0);
  for (PartId p : frag) ++size[p];
  for (int s : size) EXPECT_GE(s, 10);
  std::vector<EdgeId> full = congest::kruskal_mst(g, w);
  std::set<EdgeId> full_set(full.begin(), full.end());
  for (EdgeId e : res.edges) EXPECT_TRUE(full_set.count(e));
  EXPECT_LT(res.edges.size(), full.size());
}

TEST(ControlledGhs, MatchesKruskal) {
  Rng rng(13);
  Graph g = gen::grid(9, 9).graph();
  std::vector<Weight> w = gen::unique_random_weights(g, rng);
  congest::SessionConfig cfg;
  cfg.tree = [](const Graph& gg) { return bfs_tree(gg, 0); };
  Session s(g, greedy_certificate(), std::move(cfg));
  RunReport res = s.solve(congest::GhsMst{w});
  std::vector<EdgeId> ref = congest::kruskal_mst(g, w);
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(res.mst().edges, ref);
  EXPECT_GE(res.rounds, 1);
}

TEST(ControlledGhs, MatchesKruskalOnMaximalPlanar) {
  Rng rng(14);
  EmbeddedGraph eg = gen::random_maximal_planar(100, rng);
  const Graph& g = eg.graph();
  std::vector<Weight> w = gen::unique_random_weights(g, rng);
  congest::SessionConfig cfg;
  cfg.tree = [](const Graph& gg) { return bfs_tree(gg, 0); };
  Session s(g, greedy_certificate(), std::move(cfg));
  RunReport res = s.solve(congest::GhsMst{w});
  std::vector<EdgeId> ref = congest::kruskal_mst(g, w);
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(res.mst().edges, ref);
}

TEST(MinCut, ExactOnSmallGraphs) {
  // Two triangles joined by one light edge: min cut = that edge.
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  b.add_edge(2, 3);
  Graph g = b.build();
  std::vector<Weight> w(g.num_edges(), 10);
  w[g.find_edge(2, 3)] = 1;
  EXPECT_EQ(congest::exact_min_cut(g, w), 1);
}

TEST(MinCut, ExactOnCycleIsTwoLightest) {
  Graph g = gen::cycle(6);
  std::vector<Weight> w(g.num_edges(), 5);
  w[0] = 2;
  w[3] = 1;
  EXPECT_EQ(congest::exact_min_cut(g, w), 3);
}

TEST(MinCut, OneRespectingOnCycleIsExact) {
  Graph g = gen::cycle(8);
  Rng rng(15);
  std::vector<Weight> w = gen::random_weights(g, 1, 20, rng);
  // Any spanning tree of a cycle: the 1-respecting cuts include all pairs
  // {tree edge, the one non-tree edge}... compare against exact.
  std::vector<EdgeId> tree = congest::kruskal_mst(g, w);
  Weight one_resp = congest::best_one_respecting_cut(g, w, tree);
  EXPECT_GE(one_resp, congest::exact_min_cut(g, w));
}

class MinCutSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinCutSweep, PackingCutWithinFactorTwoOfExact) {
  Rng rng(GetParam());
  EmbeddedGraph eg = gen::random_maximal_planar(40, rng);
  const Graph& g = eg.graph();
  std::vector<Weight> w = gen::random_weights(g, 1, 30, rng);
  Weight exact = congest::exact_min_cut(g, w);

  Session s = greedy_session(g);
  congest::MinCut query{w};
  query.num_trees = 10;
  RunReport res = s.solve(query);
  // Cuts never beat the true minimum; the packing guarantees the factor.
  EXPECT_GE(res.min_cut().value, exact);
  EXPECT_LE(res.min_cut().value, 2 * exact + 1);
  EXPECT_GE(res.rounds, 1);
  // The packing re-solves MSTs on the same network: the singleton and
  // whole-network partitions must hit the cache after tree 1.
  EXPECT_GT(res.cache_hits, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCutSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace mns
