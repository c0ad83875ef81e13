// Cross-family integration suite: the full loop (generate -> BFS tree ->
// partition -> shortcut -> simulate) on EVERY generated family, verifying
// distributed MST against Kruskal, aggregation convergence, and min-cut
// bounds. This is the safety net for interactions between modules.
#include <gtest/gtest.h>

#include <algorithm>

#include "congest/aggregation.hpp"
#include "congest/mincut.hpp"
#include "congest/mst.hpp"
#include "congest/session.hpp"
#include "congest/simulator.hpp"
#include "core/shortcut_engine.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/lk_family.hpp"
#include "gen/lower_bound.hpp"
#include "gen/planar.hpp"
#include "gen/series_parallel.hpp"
#include "gen/surfaces.hpp"
#include "gen/vortex.hpp"
#include "gen/weights.hpp"
#include "graph/algorithms.hpp"

namespace mns {
namespace {

congest::Session greedy_session(const Graph& g) {
  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(4242);
  return congest::Session(g, greedy_certificate(), std::move(cfg));
}

/// One named instance of any family.
struct Instance {
  std::string name;
  Graph graph;
};

std::vector<Instance> all_families(unsigned seed) {
  Rng rng(seed);
  std::vector<Instance> out;
  out.push_back({"grid", gen::grid(9, 11).graph()});
  out.push_back({"triangulated_grid", gen::triangulated_grid(8, 8).graph()});
  out.push_back({"maximal_planar", gen::random_maximal_planar(120, rng).graph()});
  out.push_back({"torus", gen::torus_grid(7, 8).graph()});
  {
    EmbeddedGraph s = gen::surface_grid(8, 8, 2, rng);
    out.push_back({"genus2", s.graph()});
  }
  {
    EmbeddedGraph base = gen::torus_grid(6, 6);
    gen::VortexResult vr =
        gen::add_vortex(base.graph(), base.face_vertices(0), 2, 3, rng);
    out.push_back({"torus+vortex", std::move(vr.graph)});
  }
  out.push_back({"ktree3", gen::random_ktree(90, 3, rng).graph});
  out.push_back({"partial_ktree", gen::random_partial_ktree(90, 3, 0.3, rng).graph});
  out.push_back({"series_parallel", gen::random_series_parallel(80, rng)});
  {
    std::vector<gen::BagInput> bags;
    for (int i = 0; i < 5; ++i) {
      Graph g = gen::triangulated_grid(4, 4).graph();
      bags.push_back({g, gen::default_glue_cliques(g, 2)});
    }
    out.push_back({"cliquesum",
                   gen::compose_clique_sum(bags, 2, 0.2, rng).graph});
  }
  {
    gen::AlmostEmbeddableParams p;
    p.apices = 1;
    p.genus = 1;
    p.num_vortices = 1;
    p.vortex_depth = 2;
    p.rows = 5;
    p.cols = 5;
    out.push_back({"lk_sample", gen::random_lk_graph(4, p, 2, 0.1, rng).graph});
  }
  out.push_back({"wheel", gen::wheel(80)});
  {
    gen::ApexResult a =
        gen::add_apices(gen::grid(7, 7).graph(), 2, 0.25, rng);
    out.push_back({"grid+2apex", std::move(a.graph)});
  }
  out.push_back({"lower_bound", gen::lower_bound_graph(6).graph});
  out.push_back({"erdos_renyi", gen::erdos_renyi(90, 140, true, rng)});
  return out;
}

class FamilySweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(FamilySweep, DistributedMstMatchesKruskal) {
  auto [family_index, seed] = GetParam();
  std::vector<Instance> fams = all_families(seed);
  ASSERT_LT(static_cast<std::size_t>(family_index), fams.size());
  Instance& inst = fams[family_index];
  ASSERT_TRUE(is_connected(inst.graph)) << inst.name;

  Rng rng(seed * 31 + 7);
  std::vector<Weight> w = gen::unique_random_weights(inst.graph, rng);
  congest::Session session = greedy_session(inst.graph);
  congest::RunReport res = session.solve(congest::Mst{w});
  std::vector<EdgeId> ref = congest::kruskal_mst(inst.graph, w);
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(res.mst().edges, ref) << inst.name;
  EXPECT_GE(res.rounds, 1) << inst.name;
}

TEST_P(FamilySweep, AggregationConvergesOnVoronoiParts) {
  auto [family_index, seed] = GetParam();
  std::vector<Instance> fams = all_families(seed);
  Instance& inst = fams[family_index];
  Rng rng(seed * 13 + 1);
  Partition parts = voronoi_partition(inst.graph, 6, rng);
  ASSERT_EQ(parts.validate(inst.graph), "") << inst.name;

  Rng trng(2);
  VertexId c = approximate_center(inst.graph, trng);
  RootedTree t = RootedTree::from_bfs(bfs(inst.graph, c), c);
  Shortcut sc = ShortcutEngine::global()
                    .build(inst.graph, t, parts, greedy_certificate())
                    .shortcut;
  ASSERT_EQ(validate_tree_restricted(inst.graph, t, sc), "") << inst.name;

  congest::PartwiseAggregator agg(inst.graph, parts, sc);
  congest::Simulator sim(inst.graph);
  std::vector<congest::AggValue> init(inst.graph.num_vertices());
  for (VertexId v = 0; v < inst.graph.num_vertices(); ++v)
    init[v] = {static_cast<Weight>((v * 48271) % 9973), v};
  auto res = agg.aggregate_min(sim, init);  // convergence check is built in
  for (PartId p = 0; p < parts.num_parts(); ++p) {
    congest::AggValue expect{std::numeric_limits<std::int64_t>::max(),
                             std::numeric_limits<std::int32_t>::max()};
    for (VertexId v : parts.members(p)) expect = std::min(expect, init[v]);
    EXPECT_EQ(res.min_of_part[p], expect) << inst.name << " part " << p;
  }
}

std::string family_test_name(
    const ::testing::TestParamInfo<std::tuple<int, unsigned>>& info) {
  static const char* names[] = {
      "grid",       "triangulated_grid", "maximal_planar", "torus",
      "genus2",     "torus_vortex",      "ktree3",         "partial_ktree",
      "series_parallel", "cliquesum",    "lk_sample",      "wheel",
      "grid_2apex", "lower_bound",       "erdos_renyi"};
  return std::string(names[std::get<0>(info.param)]) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilySweep,
                         ::testing::Combine(::testing::Range(0, 15),
                                            ::testing::Values(1u, 2u)),
                         family_test_name);

TEST(Integration, MinCutBoundedOnThreeFamilies) {
  Rng rng(5);
  std::vector<Instance> cases;
  cases.push_back({"maximal_planar", gen::random_maximal_planar(60, rng).graph()});
  cases.push_back({"ktree2", gen::random_ktree(50, 2, rng).graph});
  cases.push_back({"torus", gen::torus_grid(5, 6).graph()});
  for (auto& inst : cases) {
    std::vector<Weight> w = gen::random_weights(inst.graph, 1, 25, rng);
    Weight exact = congest::exact_min_cut(inst.graph, w);
    congest::Session session = greedy_session(inst.graph);
    congest::MinCut query{w};
    query.num_trees = 8;
    congest::RunReport res = session.solve(query);
    EXPECT_GE(res.min_cut().value, exact) << inst.name;
    EXPECT_LE(res.min_cut().value, 2 * exact + 1) << inst.name;
  }
}

}  // namespace
}  // namespace mns
