// ISP-backbone scenario: series-parallel backbones (K4-minor-free, [FL03])
// composed by clique-sums into a country-wide network. Estimates the global
// min cut — the network's weakest link capacity — with the distributed
// tree-packing algorithm and verifies against exact Stoer-Wagner.
//
//   $ ./examples/backbone_mincut
#include <cstdio>

#include "congest/mincut.hpp"
#include "congest/session.hpp"
#include "gen/clique_sum.hpp"
#include "gen/series_parallel.hpp"
#include "gen/weights.hpp"
#include "graph/algorithms.hpp"

int main() {
  using namespace mns;
  Rng rng(99);

  // Regional backbones glued at shared routers / trunk links (2-clique-sums).
  std::vector<gen::BagInput> regions;
  for (int i = 0; i < 6; ++i) {
    Graph region = gen::random_series_parallel(40, rng);
    regions.push_back({region, gen::default_glue_cliques(region, 2)});
  }
  gen::CliqueSumResult net = gen::compose_clique_sum(regions, 2, 0.0, rng);
  const Graph& g = net.graph;
  std::vector<Weight> cap = gen::random_weights(g, 5, 50, rng);
  std::printf("backbone: n=%d m=%d diameter=%d (%d regions)\n",
              g.num_vertices(), g.num_edges(), diameter_exact(g), 6);

  Weight exact = congest::exact_min_cut(g, cap);

  // Theorem 7 pipeline on the recorded decomposition, behind one Session.
  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(3);
  congest::Session session(g, cliquesum_certificate(net.decomposition),
                           std::move(cfg));
  congest::MinCut query{cap};
  query.num_trees = 12;
  congest::RunReport res = session.solve(query);
  const Weight packed = res.min_cut().value;

  std::printf("exact min cut (Stoer-Wagner):    %lld\n",
              static_cast<long long>(exact));
  std::printf("tree-packing estimate:           %lld (%d trees, "
              "%lld cache hits)\n",
              static_cast<long long>(packed), res.min_cut().trees,
              res.cache_hits);
  std::printf("approximation ratio:             %.3f\n",
              static_cast<double>(packed) / static_cast<double>(exact));
  std::printf("simulated CONGEST rounds:        %lld\n", res.total_rounds());
  return packed >= exact && packed <= 2 * exact + 1 ? 0 : 1;
}
