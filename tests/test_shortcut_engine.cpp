// ShortcutEngine tests: certificate dispatch, the empty baseline shortcut,
// and — the migration safety net — parity tests asserting that every
// construction dispatched by the engine yields byte-identical shortcuts and
// metrics to its pre-refactor free function on fixed-seed instances.
// This file is the ONE deliberate caller of the core/engine.hpp free
// functions outside core/: they are the parity oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/engine.hpp"
#include "core/shortcut_engine.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/lk_family.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"

namespace mns {
namespace {

RootedTree bfs_tree(const Graph& g, VertexId root) {
  return RootedTree::from_bfs(bfs(g, root), root);
}

void expect_same_shortcut(const Shortcut& a, const Shortcut& b,
                          const char* what) {
  ASSERT_EQ(a.edges_of_part.size(), b.edges_of_part.size()) << what;
  for (std::size_t i = 0; i < a.edges_of_part.size(); ++i) {
    auto ea = a.edges_of_part[i];
    auto eb = b.edges_of_part[i];
    std::sort(ea.begin(), ea.end());
    std::sort(eb.begin(), eb.end());
    EXPECT_EQ(ea, eb) << what << " part " << i;
  }
}

void expect_same_metrics(const ShortcutMetrics& a, const ShortcutMetrics& b,
                         const char* what) {
  EXPECT_EQ(a.congestion, b.congestion) << what;
  EXPECT_EQ(a.block, b.block) << what;
  EXPECT_EQ(a.tree_diameter, b.tree_diameter) << what;
  EXPECT_EQ(a.quality, b.quality) << what;
  EXPECT_EQ(a.block_of_part, b.block_of_part) << what;
}

// ---------------------------------------------------------------- dispatch

TEST(ShortcutEngineDispatch, NamesFollowCertificateKind) {
  EXPECT_EQ(builder_name_for(greedy_certificate()), "uniform.greedy");
  EXPECT_EQ(builder_name_for(steiner_certificate()), "uniform.steiner");
  EXPECT_EQ(builder_name_for(ancestor_certificate(3)), "uniform.ancestor");
  Rng rng(1);
  gen::KTreeResult kt = gen::random_ktree(30, 2, rng);
  EXPECT_EQ(builder_name_for(treewidth_certificate(kt.decomposition)),
            "treewidth");
  EXPECT_EQ(builder_name_for(apex_certificate({0})), "apex");
  CliqueSumDecomposition csd =
      clique_sum_from_tree_decomposition(kt.decomposition, kt.graph);
  EXPECT_EQ(builder_name_for(cliquesum_certificate(std::move(csd))),
            "cliquesum");
}

TEST(ShortcutEngineDispatch, BuildMeasuresDispatchedShortcut) {
  Rng rng(2);
  Graph g = gen::grid(8, 8).graph();
  RootedTree t = bfs_tree(g, 0);
  Partition p = voronoi_partition(g, 5, rng);
  BuildResult r =
      ShortcutEngine::global().build(g, t, p, steiner_certificate());
  EXPECT_EQ(r.metrics.block, 1);  // steiner: one block per part
}

TEST(ShortcutEngineDispatch, EmptyShortcutMeasuresAsNoShortcut) {
  Graph g = gen::cycle(8);
  RootedTree t = bfs_tree(g, 0);
  Partition p = Partition::from_parts(8, {{1, 2}, {5, 6}});
  Shortcut none = empty_shortcut(p);
  ASSERT_EQ(none.edges_of_part.size(), 2u);
  ShortcutMetrics m = measure_shortcut(g, t, p, none);
  EXPECT_EQ(m.congestion, 0);
  EXPECT_EQ(m.block, 2);  // no edges: every vertex its own block
}

// ------------------------------------------------------------------ parity
// Each migrated builder must yield identical shortcuts AND metrics to its
// pre-refactor free function on fixed-seed instances.

struct UniformFixture {
  Graph g;
  RootedTree t;
  Partition p;
  UniformFixture() : g(), t(make()), p(parts()) {}
  RootedTree make() {
    Rng rng(1);
    g = gen::random_maximal_planar(240, rng).graph();
    return bfs_tree(g, 0);
  }
  Partition parts() {
    Rng rng(7);
    return voronoi_partition(g, 8, rng);
  }
};

TEST(ShortcutEngineParity, UniformGreedy) {
  UniformFixture f;
  BuildResult r =
      ShortcutEngine::global().build(f.g, f.t, f.p, greedy_certificate());
  Shortcut ref = build_greedy_shortcut(f.g, f.t, f.p);
  expect_same_shortcut(r.shortcut, ref, "greedy");
  expect_same_metrics(r.metrics, measure_shortcut(f.g, f.t, f.p, ref),
                      "greedy");
}

TEST(ShortcutEngineParity, UniformSteiner) {
  UniformFixture f;
  BuildResult r =
      ShortcutEngine::global().build(f.g, f.t, f.p, steiner_certificate());
  Shortcut ref = build_steiner_shortcut(f.g, f.t, f.p);
  expect_same_shortcut(r.shortcut, ref, "steiner");
  expect_same_metrics(r.metrics, measure_shortcut(f.g, f.t, f.p, ref),
                      "steiner");
}

TEST(ShortcutEngineParity, UniformAncestor) {
  UniformFixture f;
  for (int levels : {0, 3, -1}) {
    BuildResult r = ShortcutEngine::global().build(
        f.g, f.t, f.p, ancestor_certificate(levels));
    Shortcut ref = build_ancestor_shortcut(f.g, f.t, f.p, levels);
    expect_same_shortcut(r.shortcut, ref, "ancestor");
    expect_same_metrics(r.metrics, measure_shortcut(f.g, f.t, f.p, ref),
                        "ancestor");
  }
}

TEST(ShortcutEngineParity, Treewidth) {
  Rng rng(3);
  gen::KTreeResult kt = gen::random_ktree(300, 3, rng);
  RootedTree t = bfs_tree(kt.graph, 0);
  Partition p = voronoi_partition(kt.graph, 12, rng);
  BuildResult r = ShortcutEngine::global().build(
      kt.graph, t, p, treewidth_certificate(kt.decomposition));
  Shortcut ref = build_treewidth_shortcut(kt.graph, t, p, kt.decomposition);
  expect_same_shortcut(r.shortcut, ref, "treewidth");
  expect_same_metrics(r.metrics, measure_shortcut(kt.graph, t, p, ref),
                      "treewidth");
}

TEST(ShortcutEngineParity, Apex) {
  const VertexId n = 202;
  Graph g = gen::wheel(n);
  RootedTree t = bfs_tree(g, 0);
  Partition p = ring_sectors(n, 1, n - 1, 6);
  for (OracleKind inner :
       {OracleKind::kGreedy, OracleKind::kSteiner, OracleKind::kTrivial}) {
    BuildResult r = ShortcutEngine::global().build(
        g, t, p, apex_certificate({0}, inner));
    Shortcut ref = build_apex_shortcut(g, t, p, {0}, make_oracle(inner));
    expect_same_shortcut(r.shortcut, ref, oracle_kind_name(inner));
    expect_same_metrics(r.metrics, measure_shortcut(g, t, p, ref),
                        oracle_kind_name(inner));
  }
}

TEST(ShortcutEngineParity, CliqueSum) {
  Rng rng(9);
  std::vector<gen::BagInput> bags;
  for (int i = 0; i < 8; ++i) {
    Graph bg = gen::triangulated_grid(4, 4).graph();
    bags.push_back({bg, gen::default_glue_cliques(bg, 2)});
  }
  gen::CliqueSumResult cs = gen::compose_clique_sum(bags, 2, 0.2, rng);
  RootedTree t = bfs_tree(cs.graph, 0);
  Partition p = voronoi_partition(cs.graph, 9, rng);
  for (bool fold : {true, false}) {
    for (OracleKind local :
         {OracleKind::kTrivial, OracleKind::kSteiner, OracleKind::kGreedy}) {
      StructuralCertificate cert = cliquesum_certificate(cs.decomposition);
      std::get<CliqueSumCertificate>(cert).fold = fold;
      std::get<CliqueSumCertificate>(cert).local_oracle = local;
      BuildResult r = ShortcutEngine::global().build(cs.graph, t, p, cert);
      CliqueSumShortcutOptions o;
      o.fold = fold;
      o.local_oracle = make_oracle(local);
      Shortcut ref = build_cliquesum_shortcut(cs.graph, t, p,
                                              cs.decomposition, std::move(o));
      const std::string what = std::string(fold ? "folded " : "unfolded ") +
                               oracle_kind_name(local);
      expect_same_shortcut(r.shortcut, ref, what.c_str());
      expect_same_metrics(r.metrics, measure_shortcut(cs.graph, t, p, ref),
                          what.c_str());
    }
  }
}

TEST(ShortcutEngineParity, CliqueSumApexAwarePipeline) {
  // The Theorem 6 pipeline: apex-aware local oracles + bag apices.
  Rng rng(7);
  gen::AlmostEmbeddableParams bp;
  bp.apices = 1;
  bp.genus = 1;
  bp.rows = 5;
  bp.cols = 5;
  gen::LkSample s = gen::random_lk_graph(4, bp, 2, 0.1, rng);
  RootedTree t = bfs_tree(s.graph, 0);
  Partition p = voronoi_partition(s.graph, 8, rng);
  CliqueSumCertificate cert{s.decomposition};
  cert.apex_aware = true;
  cert.bag_apices = s.global_apices;
  BuildResult r = ShortcutEngine::global().build(s.graph, t, p, cert);
  CliqueSumShortcutOptions o;
  o.bag_apices = s.global_apices;
  o.local_oracle = make_apex_oracle(make_greedy_oracle());
  Shortcut ref =
      build_cliquesum_shortcut(s.graph, t, p, s.decomposition, std::move(o));
  expect_same_shortcut(r.shortcut, ref, "pipeline");
  expect_same_metrics(r.metrics, measure_shortcut(s.graph, t, p, ref),
                      "pipeline");
}

}  // namespace
}  // namespace mns
