// Property suite for Theorem 1's mechanism: measured aggregation rounds are
// controlled by shortcut quality, and degrade gracefully toward the isolated
// part diameter without shortcuts. All bounds here are deliberately loose
// (constant-factor slack) — they pin the *shape*, which is what the theorem
// claims.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "congest/aggregation.hpp"
#include "congest/simulator.hpp"
#include "core/shortcut_engine.hpp"
#include "gen/basic.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"

namespace mns {
namespace {

using congest::AggValue;

std::vector<AggValue> hash_values(VertexId n) {
  std::vector<AggValue> init(n);
  for (VertexId v = 0; v < n; ++v)
    init[v] = {static_cast<Weight>((v * 2654435761u) % 1000003), v};
  return init;
}

long long measured_rounds(const Graph& g, const Partition& parts,
                          const Shortcut& sc) {
  congest::PartwiseAggregator agg(g, parts, sc);
  congest::Simulator sim(g);
  (void)agg.aggregate_min(sim, hash_values(g.num_vertices()));
  return sim.rounds();
}

TEST(AggregationProperty, NoShortcutRoundsTrackPartDiameter) {
  // Ring sector of length L floods in ~L/2..L rounds.
  for (int sectors : {2, 4, 8}) {
    const VertexId n = 962;
    Graph g = gen::wheel(n);
    Partition parts = ring_sectors(n, 1, n - 1, sectors);
    Shortcut none;
    none.edges_of_part.resize(parts.num_parts());
    long long rounds = measured_rounds(g, parts, none);
    int len = (n - 1) / sectors;
    EXPECT_GE(rounds, len / 2 - 2) << sectors;
    EXPECT_LE(rounds, 2 * len + 4) << sectors;
  }
}

TEST(AggregationProperty, RoundsBoundedByQualityTimesConstant) {
  // With a tree-restricted shortcut, rounds <= C * (q + d_T): each block is
  // a tree fragment of depth <= d_T, congestion delays are <= c per edge.
  struct Case {
    Graph g;
    Partition parts;
  };
  std::vector<Case> cases;
  {
    const VertexId n = 402;
    cases.push_back({gen::wheel(n), ring_sectors(n, 1, n - 1, 4)});
  }
  {
    const int s = 24;
    cases.push_back(
        {gen::grid(s, s).graph(), grid_serpentines(s, s, 4)});
  }
  {
    Rng rng(3);
    Graph g = gen::random_maximal_planar(300, rng).graph();
    cases.push_back({g, voronoi_partition(g, 10, rng)});
  }
  for (auto& cs : cases) {
    Rng rng(1);
    VertexId c = approximate_center(cs.g, rng);
    RootedTree t = RootedTree::from_bfs(bfs(cs.g, c), c);
    for (const StructuralCertificate& cert :
         {greedy_certificate(), steiner_certificate()}) {
      BuildResult r = ShortcutEngine::global().build(cs.g, t, cs.parts, cert);
      const ShortcutMetrics& m = r.metrics;
      long long rounds = measured_rounds(cs.g, cs.parts, r.shortcut);
      EXPECT_LE(rounds, 6 * (m.quality + m.tree_diameter) + 20)
          << "n=" << cs.g.num_vertices();
    }
  }
}

TEST(AggregationProperty, ShortcutNeverBreaksCorrectnessUnderHighCongestion) {
  // Deliberately terrible shortcut: every part gets the whole tree. The
  // answer must still be right; only rounds inflate.
  const VertexId n = 202;
  Graph g = gen::wheel(n);
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Partition parts = ring_sectors(n, 1, n - 1, 6);
  Shortcut bloated;
  bloated.edges_of_part.resize(parts.num_parts());
  for (PartId p = 0; p < parts.num_parts(); ++p)
    for (VertexId v = 1; v < n; ++v)
      bloated.edges_of_part[p].push_back(t.parent_edge(v));
  congest::PartwiseAggregator agg(g, parts, bloated);
  congest::Simulator sim(g);
  auto init = hash_values(n);
  auto res = agg.aggregate_min(sim, init);
  for (PartId p = 0; p < parts.num_parts(); ++p) {
    AggValue expect{std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::int32_t>::max()};
    for (VertexId v : parts.members(p)) expect = std::min(expect, init[v]);
    EXPECT_EQ(res.min_of_part[p], expect);
  }
}

TEST(AggregationProperty, SingletonPartsFinishInstantly) {
  Graph g = gen::grid(10, 10).graph();
  std::vector<PartId> part_of(g.num_vertices(), kNoPart);
  for (VertexId v = 0; v < 20; ++v) part_of[v] = v;  // 20 singletons
  Partition parts(part_of);
  Shortcut sc;
  sc.edges_of_part.resize(parts.num_parts());
  long long rounds = measured_rounds(g, parts, sc);
  EXPECT_EQ(rounds, 0);
}

TEST(AggregationProperty, UnassignedVerticesDoNotParticipate) {
  // Vertices outside all parts must not affect results.
  Graph g = gen::path(10);
  Partition parts = Partition::from_parts(10, {{0, 1, 2}});
  Shortcut sc;
  sc.edges_of_part.resize(1);
  congest::PartwiseAggregator agg(g, parts, sc);
  congest::Simulator sim(g);
  std::vector<AggValue> init(10, AggValue{-999, 0});  // junk everywhere
  init[0] = {5, 0};
  init[1] = {4, 1};
  init[2] = {6, 2};
  auto res = agg.aggregate_min(sim, init);
  EXPECT_EQ(res.min_of_part[0].value, 4);
  EXPECT_EQ(res.min_of_part[0].aux, 1);
}

// ------------------------------------------------ closed-form flood costs
//
// One part, an empty shortcut, and one finite value at `root` of a tree:
// every other member improves exactly once, from its parent, and never
// sends the value back (DESIGN.md §9, no echo). So the flood sends one
// message per tree edge and ends after the root's eccentricity in rounds.
// A kernel that echoes sends 2(n - 1) messages and one round more.

struct FloodCost {
  long long rounds = 0;
  long long messages = 0;
};

FloodCost flood_from(const Graph& g, VertexId root) {
  const VertexId n = g.num_vertices();
  const Partition one(std::vector<PartId>(static_cast<std::size_t>(n), 0));
  Shortcut none;
  none.edges_of_part.resize(1);
  congest::PartwiseAggregator agg(g, one, none);
  congest::Simulator sim(g);
  std::vector<AggValue> init(static_cast<std::size_t>(n),
                             {std::numeric_limits<std::int64_t>::max(),
                              std::numeric_limits<std::int32_t>::max()});
  init[static_cast<std::size_t>(root)] = {7, root};
  const congest::AggregationResult res = agg.aggregate_min(sim, init);
  EXPECT_EQ(res.min_of_part[0], init[static_cast<std::size_t>(root)]);
  EXPECT_EQ(res.rounds, sim.rounds());
  return {res.rounds, sim.messages_sent()};
}

TEST(AggregationClosedForm, PathFromAnEndSendsOneMessagePerEdge) {
  for (VertexId n : {2, 3, 17, 200}) {
    SCOPED_TRACE(n);
    const FloodCost c = flood_from(gen::path(n), 0);
    EXPECT_EQ(c.messages, n - 1);
    EXPECT_EQ(c.rounds, n - 1);
  }
}

TEST(AggregationClosedForm, StarFromItsCentreTakesOneRound) {
  for (VertexId leaves : {1, 5, 300}) {
    SCOPED_TRACE(leaves);
    const FloodCost c = flood_from(gen::star(leaves), 0);
    EXPECT_EQ(c.messages, leaves);
    EXPECT_EQ(c.rounds, 1);
  }
}

TEST(AggregationClosedForm, RandomTreeTakesTheRootsEccentricity) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const Graph g = gen::random_tree(400, rng);
    for (VertexId root : {0, 123}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " root " << root);
      const FloodCost c = flood_from(g, root);
      EXPECT_EQ(c.messages, g.num_vertices() - 1);
      EXPECT_EQ(c.rounds, bfs(g, root).max_distance());
    }
  }
}

class QualityMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(QualityMonotonicity, BetterQualityNeverMuchSlowerOnWheel) {
  // On the wheel: quality-3 shortcuts finish in O(1) rounds while the
  // no-shortcut baseline needs Theta(n / sectors); the ordering must hold
  // across sizes.
  const VertexId n = 200 * GetParam() + 2;
  Graph g = gen::wheel(n);
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Partition parts = ring_sectors(n, 1, n - 1, 4);
  Shortcut good =
      ShortcutEngine::global().build(g, t, parts, greedy_certificate())
          .shortcut;
  Shortcut none;
  none.edges_of_part.resize(parts.num_parts());
  long long fast = measured_rounds(g, parts, good);
  long long slow = measured_rounds(g, parts, none);
  EXPECT_LT(4 * fast, slow) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, QualityMonotonicity,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace mns
