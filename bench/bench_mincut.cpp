// E12 (Corollary 1, min-cut side): distributed tree-packing min-cut on
// minor-free networks — rounds dominated by the MST subroutine (so the Õ(D^2)
// shape carries over) and approximation ratio verified against exact
// Stoer-Wagner. Served through congest::Session; the packing MSTs share the
// session's shortcut cache (the singleton and whole-network partitions hit
// on every tree after the first).
#include <cstdio>

#include "bench_util.hpp"
#include "congest/session.hpp"
#include "gen/clique_sum.hpp"
#include "gen/planar.hpp"
#include "gen/series_parallel.hpp"
#include "gen/weights.hpp"

using namespace mns;

namespace {

void run_case(bench::JsonReport& report, const char* family, const Graph& g,
              const std::vector<Weight>& w) {
  Weight exact = congest::exact_min_cut(g, w);
  congest::Session session = bench::make_session(g, greedy_certificate());
  congest::MinCut query{w};
  query.num_trees = 8;
  query.two_respecting = g.num_vertices() <= 256;  // O(n^2) verifier scale
  congest::RunReport res = session.solve(query);
  std::printf("%-22s n=%5d  exact=%6lld  packed=%6lld  ratio=%.3f  "
              "rounds=%8lld (%d trees, %d-respecting, %lld cache hits)\n",
              family, g.num_vertices(), static_cast<long long>(exact),
              static_cast<long long>(res.min_cut().value),
              static_cast<double>(res.min_cut().value) /
                  static_cast<double>(exact),
              res.total_rounds(), res.min_cut().trees,
              query.two_respecting ? 2 : 1, res.cache_hits);
  report.row().set("family", family).set("n", g.num_vertices())
      .set("exact", static_cast<long long>(exact))
      .set("packed", static_cast<long long>(res.min_cut().value))
      .set_run(res).set("trees", res.min_cut().trees);
}

}  // namespace

int main() {
  bench::header("E12: (1+eps)-style min-cut via tree packing (Corollary 1)");
  bench::JsonReport report("mincut");
  for (int n : {100, 200, 400}) {
    Rng rng(static_cast<unsigned>(n));
    EmbeddedGraph eg = gen::random_maximal_planar(n, rng);
    std::vector<Weight> w = gen::random_weights(eg.graph(), 1, 40, rng);
    run_case(report, "maximal planar", eg.graph(), w);
  }
  for (int regions : {4, 8}) {
    Rng rng(static_cast<unsigned>(regions * 13));
    std::vector<gen::BagInput> bags;
    for (int i = 0; i < regions; ++i) {
      Graph sp = gen::random_series_parallel(30, rng);
      bags.push_back({sp, gen::default_glue_cliques(sp, 2)});
    }
    gen::CliqueSumResult r = gen::compose_clique_sum(bags, 2, 0.0, rng);
    std::vector<Weight> w = gen::random_weights(r.graph, 1, 40, rng);
    char label[48];
    std::snprintf(label, sizeof label, "SP clique-sum x%d", regions);
    run_case(report, label, r.graph, w);
  }
  return report.write() ? 0 : 1;
}
