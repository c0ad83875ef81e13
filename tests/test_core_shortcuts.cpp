// Tests for the shortcut framework: partitions (Def 9), metrics (Defs 10-13),
// the uniform constructions, the Steiner-minor local trees, and sanity of the
// quality numbers on canonical instances (wheel, grid stripes).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/construct_tree.hpp"
#include "core/shortcut_engine.hpp"
#include "core/local_tree.hpp"
#include "core/partition.hpp"
#include "core/shortcut.hpp"
#include "gen/basic.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"

namespace mns {
namespace {

RootedTree bfs_tree(const Graph& g, VertexId root) {
  return RootedTree::from_bfs(bfs(g, root), root);
}

Shortcut engine_build(const Graph& g, const RootedTree& t, const Partition& p,
                      const StructuralCertificate& cert) {
  return ShortcutEngine::global().build(g, t, p, cert).shortcut;
}

TEST(Partition, FromPartsAndValidate) {
  Graph g = gen::cycle(8);
  Partition p =
      Partition::from_parts(8, {{0, 1, 2}, {4, 5}, {7}});
  EXPECT_EQ(p.num_parts(), 3);
  EXPECT_EQ(p.part_of(1), 0);
  EXPECT_EQ(p.part_of(3), kNoPart);
  EXPECT_EQ(p.validate(g), "");
}

TEST(Partition, ValidateRejectsDisconnectedPart) {
  Graph g = gen::cycle(8);
  Partition p = Partition::from_parts(8, {{0, 2}});
  EXPECT_NE(p.validate(g), "");
}

TEST(Partition, RejectsOverlapAndSparseIds) {
  EXPECT_THROW(Partition::from_parts(4, {{0, 1}, {1, 2}}),
               std::invalid_argument);
  std::vector<PartId> sparse{0, 2, kNoPart, kNoPart};  // id 1 missing
  EXPECT_THROW({ Partition bad(sparse); }, std::invalid_argument);
}

TEST(Partition, VoronoiCoversAndConnects) {
  Rng rng(3);
  Graph g = gen::grid(10, 10).graph();
  Partition p = voronoi_partition(g, 7, rng);
  EXPECT_EQ(p.num_parts(), 7);
  EXPECT_EQ(p.validate(g), "");
  // Voronoi over a connected graph assigns everyone.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_NE(p.part_of(v), kNoPart);
}

TEST(Partition, RingSectorsOnWheel) {
  Partition p = ring_sectors(9, 1, 8, 4);
  EXPECT_EQ(p.num_parts(), 4);
  EXPECT_EQ(p.part_of(0), kNoPart);  // hub unassigned
  Graph w = gen::wheel(9);
  EXPECT_EQ(p.validate(w), "");
  EXPECT_THROW((void)ring_sectors(10, 5, 8, 2), std::invalid_argument);
  EXPECT_THROW((void)ring_sectors(10, -1, 8, 2), std::invalid_argument);
}

TEST(Partition, GridStripes) {
  Partition p = grid_stripes(6, 4, 2);
  EXPECT_EQ(p.num_parts(), 3);
  Graph g = gen::grid(6, 4).graph();
  EXPECT_EQ(p.validate(g), "");
}

TEST(Partition, GridSerpentinesAreConnectedSnakes) {
  const int rows = 12, cols = 12, width = 3;
  Graph g = gen::grid(rows, cols).graph();
  Partition p = grid_serpentines(rows, cols, width);
  EXPECT_EQ(p.num_parts(), cols / width);
  EXPECT_EQ(p.validate(g), "");
  // Each serpentine's induced diameter is ~rows*width/2, far above the grid
  // diameter rows+cols — the adversarial property the parts exist for.
  for (PartId q = 0; q < p.num_parts(); ++q) {
    InducedSubgraph sub = induced_subgraph(g, p.members(q));
    EXPECT_GE(diameter_exact(sub.graph), rows * width / 2 - width);
    EXPECT_GT(diameter_exact(sub.graph), rows + cols - 2);
  }
  EXPECT_THROW(grid_serpentines(4, 4, 0), std::invalid_argument);
  EXPECT_THROW(grid_serpentines(4, 4, 5), std::invalid_argument);
}

TEST(Metrics, TreeDiameterMatchesGraphDiameter) {
  Graph g = gen::path(17);
  RootedTree t = bfs_tree(g, 5);
  EXPECT_EQ(tree_diameter(t), 16);
}

TEST(Metrics, EmptyShortcutBlocks) {
  // With no shortcut edges, every part vertex is its own block.
  Graph g = gen::cycle(12);
  RootedTree t = bfs_tree(g, 0);
  Partition p = Partition::from_parts(12, {{3, 4, 5}, {8, 9}});
  Shortcut sc;
  sc.edges_of_part.resize(2);
  ShortcutMetrics m = measure_shortcut(g, t, p, sc);
  EXPECT_EQ(m.congestion, 0);
  EXPECT_EQ(m.block_of_part[0], 3);
  EXPECT_EQ(m.block_of_part[1], 2);
  EXPECT_EQ(m.block, 3);
}

TEST(Metrics, CongestionCountsSharedEdges) {
  Graph g = gen::star(4);  // center 0
  RootedTree t = bfs_tree(g, 0);
  Partition p = Partition::from_parts(5, {{1}, {2}, {3}});
  EdgeId e01 = g.find_edge(0, 1);
  Shortcut sc;
  sc.edges_of_part = {{e01}, {e01}, {e01}};
  ShortcutMetrics m = measure_shortcut(g, t, p, sc);
  EXPECT_EQ(m.congestion, 3);
}

TEST(Metrics, ValidateTreeRestriction) {
  Graph g = gen::cycle(6);
  RootedTree t = bfs_tree(g, 0);
  // The cycle has exactly one non-tree edge; find it.
  std::set<EdgeId> tree_edges;
  for (VertexId v = 1; v < 6; ++v) tree_edges.insert(t.parent_edge(v));
  EdgeId non_tree = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (!tree_edges.count(e)) non_tree = e;
  ASSERT_NE(non_tree, kInvalidEdge);

  Shortcut ok;
  ok.edges_of_part = {{*tree_edges.begin()}};
  EXPECT_EQ(validate_tree_restricted(g, t, ok), "");

  Shortcut bad;
  bad.edges_of_part = {{non_tree}};
  EXPECT_NE(validate_tree_restricted(g, t, bad), "");

  Shortcut dup;
  dup.edges_of_part = {{*tree_edges.begin(), *tree_edges.begin()}};
  EXPECT_NE(validate_tree_restricted(g, t, dup), "");
}

TEST(Metrics, ValidationMessagesAreExact) {
  Graph g = gen::cycle(6);
  RootedTree t = bfs_tree(g, 0);
  std::set<EdgeId> tree_edges;
  for (VertexId v = 1; v < 6; ++v) tree_edges.insert(t.parent_edge(v));
  EdgeId non_tree = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (!tree_edges.count(e)) non_tree = e;
  ASSERT_NE(non_tree, kInvalidEdge);
  const EdgeId e = *tree_edges.begin();
  const std::string es = std::to_string(e);
  auto check = [&](std::vector<std::vector<EdgeId>> edges) {
    Shortcut sc;
    sc.edges_of_part = std::move(edges);
    return validate_tree_restricted(g, t, sc);
  };
  EXPECT_EQ(check({{e}, {-1}}), "part 1 has out-of-range edge id");
  EXPECT_EQ(check({{g.num_edges()}}), "part 0 has out-of-range edge id");
  EXPECT_EQ(check({{}, {e, non_tree}}),
            "part 1 uses non-tree edge " + std::to_string(non_tree));
  EXPECT_EQ(check({{e, e}}), "part 0 lists edge " + es + " twice");
  // The first failing entry decides, and each entry is checked for range,
  // then tree membership, then repetition.
  EXPECT_EQ(check({{e, e, -1}}), "part 0 lists edge " + es + " twice");
  EXPECT_EQ(check({{non_tree, non_tree}}),
            "part 0 uses non-tree edge " + std::to_string(non_tree));
  // One edge in two different parts is congestion, not an error.
  EXPECT_EQ(check({{e}, {e}}), "");
  EXPECT_EQ(check({{e}, {e}, {e, e}}), "part 2 lists edge " + es + " twice");
}

TEST(SteinerShortcut, SingleBlockPerPart) {
  Rng rng(5);
  Graph g = gen::grid(8, 8).graph();
  RootedTree t = bfs_tree(g, 0);
  Partition p = voronoi_partition(g, 6, rng);
  Shortcut sc = engine_build(g, t, p, steiner_certificate());
  EXPECT_EQ(validate_tree_restricted(g, t, sc), "");
  ShortcutMetrics m = measure_shortcut(g, t, p, sc);
  EXPECT_EQ(m.block, 1);
}

TEST(AncestorShortcut, FullClimbGivesOneBlock) {
  Rng rng(6);
  Graph g = gen::grid(6, 6).graph();
  RootedTree t = bfs_tree(g, 0);
  Partition p = voronoi_partition(g, 5, rng);
  Shortcut sc = engine_build(g, t, p, ancestor_certificate(-1));
  EXPECT_EQ(validate_tree_restricted(g, t, sc), "");
  ShortcutMetrics m = measure_shortcut(g, t, p, sc);
  EXPECT_EQ(m.block, 1);  // everyone reaches the root
}

TEST(AncestorShortcut, ZeroLevelsIsEmpty) {
  Graph g = gen::path(6);
  RootedTree t = bfs_tree(g, 0);
  Partition p = Partition::from_parts(6, {{2, 3}});
  Shortcut sc = engine_build(g, t, p, ancestor_certificate(0));
  EXPECT_TRUE(sc.edges_of_part[0].empty());
}

TEST(GreedyShortcut, ValidAndConnectsParts) {
  Rng rng(7);
  Graph g = gen::grid(10, 10).graph();
  RootedTree t = bfs_tree(g, 0);
  Partition p = voronoi_partition(g, 8, rng);
  Shortcut sc = engine_build(g, t, p, greedy_certificate());
  EXPECT_EQ(validate_tree_restricted(g, t, sc), "");
  ShortcutMetrics m = measure_shortcut(g, t, p, sc);
  EXPECT_GE(m.block, 1);
  EXPECT_LE(m.block, 100);
  EXPECT_GE(m.congestion, 1);
}

TEST(CappedGreedy, RespectsCongestionCap) {
  Rng rng(8);
  Graph g = gen::grid(12, 12).graph();
  RootedTree t = bfs_tree(g, 0);
  Partition p = voronoi_partition(g, 20, rng);
  for (int cap : {1, 2, 4}) {
    std::vector<std::vector<VertexId>> sets;
    for (PartId q = 0; q < p.num_parts(); ++q) {
      auto m = p.members(q);
      sets.emplace_back(m.begin(), m.end());
    }
    auto res = capped_greedy(t, sets, cap);
    std::vector<int> load(t.num_vertices(), 0);
    for (const auto& es : res)
      for (VertexId v : es) ++load[v];
    for (VertexId v = 0; v < t.num_vertices(); ++v)
      EXPECT_LE(load[v], cap) << "cap " << cap;
  }
}

TEST(CappedGreedy, RejectsAVertexInTwoTerminalSets) {
  Graph g = gen::path(8);
  RootedTree t = bfs_tree(g, 0);
  const std::vector<std::vector<VertexId>> overlap{{1, 3}, {6, 3, 7}};
  auto names_vertex_3 = [](const auto& build) {
    try {
      build();
    } catch (const InvariantViolation& e) {
      return std::string(e.what()).find("vertex 3 ") != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(names_vertex_3([&] { (void)capped_greedy(t, overlap, 2); }));
  EXPECT_TRUE(names_vertex_3([&] { (void)tuned_greedy(t, overlap); }));
  // A vertex listed twice in one set is no overlap.
  EXPECT_EQ(capped_greedy(t, {{1, 3, 1}, {6}}, 1),
            capped_greedy(t, {{1, 3}, {6}}, 1));
}

TEST(UniformConstructions, OverlappingSetsKeepTheirOwnResults) {
  // steiner_subtrees and ancestor_climb treat each set on its own: a set that
  // overlaps others gets exactly what it gets alone.
  Graph g = gen::grid(8, 8).graph();
  RootedTree t = bfs_tree(g, 0);
  const std::vector<std::vector<VertexId>> sets{
      {9, 27, 45}, {27, 45, 63, 12}, {45, 0, 7}, {63, 62}};
  const auto steiner = steiner_subtrees(t, sets);
  for (std::size_t s = 0; s < sets.size(); ++s) {
    EXPECT_EQ(steiner[s], steiner_subtrees(t, {sets[s]})[0]) << "set " << s;
    EXPECT_FALSE(steiner[s].empty()) << "set " << s;
  }
  for (int levels : {-1, 1, 3}) {
    const auto climb = ancestor_climb(t, sets, levels);
    for (std::size_t s = 0; s < sets.size(); ++s)
      EXPECT_EQ(climb[s], ancestor_climb(t, {sets[s]}, levels)[0])
          << "set " << s << ", " << levels << " levels";
  }
}

TEST(WheelCase, RingPartsGetGoodQualityViaApexConstruction) {
  // The paper's motivating example: wheel graph, ring split into sectors.
  // Without shortcuts each sector has Theta(n) diameter; the apex-aware
  // construction (Lemma 9) must deliver small block and congestion.
  const VertexId n = 202;  // hub + 201-ring... hub 0, ring 1..201
  Graph g = gen::wheel(n);
  RootedTree t = bfs_tree(g, 0);  // BFS tree = star from hub
  Partition p = ring_sectors(n, 1, n - 1, 6);
  Shortcut sc = engine_build(g, t, p, apex_certificate({0}));
  EXPECT_EQ(validate_tree_restricted(g, t, sc), "");
  ShortcutMetrics m = measure_shortcut(g, t, p, sc);
  // Cells are singleton spokes; the assignment gives each sector nearly all
  // of its spokes: block small, congestion small.
  EXPECT_LE(m.block, 8);
  EXPECT_LE(m.congestion, 8);
}

TEST(LocalTree, SteinerMinorOfPathSubset) {
  Graph g = gen::path(10);
  RootedTree t = bfs_tree(g, 0);
  std::vector<VertexId> verts{2, 5, 9};
  LocalTree lt = steiner_minor(t, verts);
  EXPECT_EQ(lt.tree.num_vertices(), 3);
  EXPECT_EQ(lt.to_global, (std::vector<VertexId>{2, 5, 9}));
  // Path: 9 hangs under 5 hangs under 2; all contracted => virtual edges.
  VertexId l2 = 0, l5 = 1, l9 = 2;
  EXPECT_EQ(lt.tree.root(), l2);
  EXPECT_EQ(lt.tree.parent(l5), l2);
  EXPECT_EQ(lt.tree.parent(l9), l5);
  EXPECT_EQ(lt.real_parent_edge[l5], kInvalidEdge);
  EXPECT_EQ(lt.real_parent_edge[l9], kInvalidEdge);
}

TEST(LocalTree, RealEdgesDetected) {
  Graph g = gen::path(6);
  RootedTree t = bfs_tree(g, 0);
  std::vector<VertexId> verts{1, 2, 4};
  LocalTree lt = steiner_minor(t, verts);
  // Edge (2 -> 1) is a real tree edge; (4 -> 2) is contracted.
  VertexId l1 = 0, l2 = 1, l4 = 2;
  EXPECT_EQ(lt.tree.parent(l2), l1);
  EXPECT_NE(lt.real_parent_edge[l2], kInvalidEdge);
  EXPECT_EQ(g.other_endpoint(lt.real_parent_edge[l2], 2), 1);
  EXPECT_EQ(lt.tree.parent(l4), l2);
  EXPECT_EQ(lt.real_parent_edge[l4], kInvalidEdge);
}

TEST(LocalTree, BranchingLcaOutsideSet) {
  // Star: terminals are three leaves; LCA (center) not in the set.
  Graph g = gen::star(4);
  RootedTree t = bfs_tree(g, 0);
  std::vector<VertexId> verts{1, 2, 3};
  LocalTree lt = steiner_minor(t, verts);
  EXPECT_EQ(lt.tree.num_vertices(), 3);
  // One terminal becomes the local root; the others attach virtually.
  int roots = 0;
  for (VertexId v = 0; v < 3; ++v)
    if (lt.tree.parent(v) == kInvalidVertex) ++roots;
  EXPECT_EQ(roots, 1);
  for (VertexId v = 0; v < 3; ++v) {
    if (v != lt.tree.root()) {
      EXPECT_EQ(lt.real_parent_edge[v], kInvalidEdge);
    }
  }
}

TEST(LocalTree, DiameterStaysBounded) {
  Rng rng(11);
  EmbeddedGraph eg = gen::random_maximal_planar(300, rng);
  const Graph& g = eg.graph();
  RootedTree t = bfs_tree(g, 0);
  std::uniform_int_distribution<VertexId> pick(0, g.num_vertices() - 1);
  std::vector<VertexId> verts;
  for (int i = 0; i < 60; ++i) verts.push_back(pick(rng));
  LocalTree lt = steiner_minor(t, verts);
  // Minor of T: local depth cannot exceed T's vertex count and in practice
  // stays near T's height; sanity-bound it by T's height + 2.
  EXPECT_LE(lt.tree.height(), t.height() + 2);
}

class UniformConstructionSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UniformConstructionSweep, AllConstructionsValidOnRandomInstances) {
  auto [seed, num_parts] = GetParam();
  Rng rng(seed);
  EmbeddedGraph eg = gen::random_maximal_planar(240, rng);
  const Graph& g = eg.graph();
  Rng rootrng(seed + 1);
  RootedTree t = bfs_tree(g, approximate_center(g, rootrng));
  Partition p = voronoi_partition(g, num_parts, rng);
  ASSERT_EQ(p.validate(g), "");

  for (const StructuralCertificate& cert :
       {greedy_certificate(), steiner_certificate()}) {
    BuildResult r = ShortcutEngine::global().build(g, t, p, cert);
    EXPECT_EQ(validate_tree_restricted(g, t, r.shortcut), "");
    EXPECT_GE(r.metrics.quality, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, UniformConstructionSweep,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(4, 16)));

}  // namespace
}  // namespace mns
