// E2 (Theorem 5): treewidth-k graphs admit shortcuts with b = O(k),
// c = O(k log n). Sweeps k and n on random k-trees using their recorded
// width-k decompositions.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "gen/ktree.hpp"

using namespace mns;

int main() {
  bench::header("E2: treewidth shortcuts (Theorem 5 / [HIZ16b] targets)");
  bench::JsonReport report("treewidth_shortcuts");
  std::printf("%4s %7s %6s %6s %8s %12s %14s\n", "k", "n", "b", "c", "q",
              "ref b=O(k)", "ref c=O(k lg n)");
  for (int k : {1, 2, 3, 4, 6, 8}) {
    for (int n : {1000, 4000, 16000}) {
      Rng rng(static_cast<unsigned>(k * 1000 + n));
      gen::KTreeResult kt = gen::random_ktree(n, k, rng);
      RootedTree t = bench::center_tree(kt.graph);
      Partition parts = voronoi_partition(
          kt.graph, std::max(2, static_cast<int>(std::sqrt(n))), rng);
      const StructuralCertificate cert =
          treewidth_certificate(kt.decomposition);
      const ShortcutMetrics m =
          bench::engine().build(kt.graph, t, parts, cert).metrics;
      std::printf("%4d %7d %6d %6d %8lld %12d %14.1f\n", k, n, m.block,
                  m.congestion, m.quality, k + 1,
                  (k + 1) * std::log2(static_cast<double>(n)));
      report.row().set("k", k).set("n", n)
          .set("builder", builder_name_for(cert)).set_metrics(m);
    }
  }
  return 0;
}
