// E3 (Theorem 7): clique-sums preserve shortcut quality —
// b_G <= 2k + O(b_F), c_G <= O(k log^2 n) + c_F. Composes planar / k-tree
// bags into k-clique-sums of growing size and compares the composed quality
// against a single bag's baseline quality.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"

using namespace mns;

namespace {

ShortcutMetrics run_bag_baseline(const Graph& bag_graph) {
  RootedTree t = bench::center_tree(bag_graph);
  Rng rng(5);
  Partition parts = voronoi_partition(bag_graph, 6, rng);
  return bench::engine()
      .build(bag_graph, t, parts, greedy_certificate())
      .metrics;
}

}  // namespace

int main() {
  bench::header("E3: clique-sum composition (Theorem 7 targets)");
  bench::JsonReport report("cliquesum_shortcuts");
  const int k = 2;
  std::printf("bag family: triangulated 8x8 grids; glue cliques of size <= %d\n",
              k);

  Graph bag = gen::triangulated_grid(8, 8).graph();
  ShortcutMetrics base = run_bag_baseline(bag);
  std::printf("single-bag baseline: b_F=%d c_F=%d\n\n", base.block,
              base.congestion);
  std::printf("%6s %8s %6s %6s %8s %16s %20s\n", "bags", "n", "b", "c", "q",
              "ref b<=2k+O(b_F)", "ref c<=O(k lg^2 n)+c_F");

  for (int bags_count : {4, 16, 64, 256}) {
    Rng rng(static_cast<unsigned>(bags_count));
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < bags_count; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, k)});
    gen::CliqueSumResult r = gen::compose_clique_sum(inputs, k, 0.2, rng);
    RootedTree t = bench::center_tree(r.graph);
    Partition parts = voronoi_partition(
        r.graph, std::max(2, static_cast<int>(std::sqrt(r.graph.num_vertices()))),
        rng);
    const StructuralCertificate cert = cliquesum_certificate(r.decomposition);
    const ShortcutMetrics m =
        bench::engine().build(r.graph, t, parts, cert).metrics;
    double lg = std::log2(static_cast<double>(r.graph.num_vertices()));
    std::printf("%6d %8d %6d %6d %8lld %16d %20.0f\n", bags_count,
                r.graph.num_vertices(), m.block, m.congestion, m.quality,
                2 * k + 4 * base.block, k * lg * lg + base.congestion);
    report.row().set("bags", bags_count).set("n", r.graph.num_vertices())
        .set("builder", builder_name_for(cert)).set_metrics(m);
  }
  return 0;
}
