// Quickstart: build a planar network, compute its MST distributively with
// low-congestion shortcuts, and compare the round count against the
// no-shortcut baseline.
//
//   $ ./examples/quickstart
//
// The network is the paper's own motivating instance (§1): "a planar graph
// with an added vertex attached to every other node" — an excluded-minor
// graph of diameter 2 on which pre-existing Õ(sqrt(n))-round algorithms are
// stuck. The edge weights are adversarial: the lightest edges trace a
// serpentine path, so Boruvka fragments grow into long snakes whose isolated
// diameter is Theta(n) despite the tiny network diameter — the exact
// pathology (paper §1.3.3) that low-congestion shortcuts repair.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "congest/mst.hpp"
#include "congest/session.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"

int main() {
  using namespace mns;
  const int rows = 48, cols = 32;

  // 1. A planar grid plus an apex attached to every other node: diameter ~2.
  EmbeddedGraph embedded = gen::grid(rows, cols);
  const VertexId grid_n = embedded.graph().num_vertices();
  const VertexId apex = grid_n;
  Graph g;
  {
    GraphBuilder b(grid_n + 1);
    for (EdgeId e = 0; e < embedded.graph().num_edges(); ++e)
      b.add_edge(embedded.graph().edge(e).u, embedded.graph().edge(e).v);
    for (VertexId v = 0; v < grid_n; v += 2) b.add_edge(apex, v);
    g = b.build();
  }
  std::printf("network: n=%d m=%d diameter=%d (apex = node %d)\n",
              g.num_vertices(), g.num_edges(), diameter_exact(g), apex);

  // 2. Adversarial weights: a boustrophedon path (row 0 left-to-right, row 1
  //    right-to-left, ...) gets weights 1..n-1; everything else is heavier.
  auto id = [&](int r, int c) { return static_cast<VertexId>(r * cols + c); };
  std::vector<Weight> w(g.num_edges(), 0);
  {
    std::vector<char> on_path(g.num_edges(), 0);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c + 1 < cols; ++c) {
        EdgeId e = g.find_edge(id(r, c), id(r, c + 1));
        on_path[e] = 1;
      }
      if (r + 1 < rows) {
        int turn = (r % 2 == 0) ? cols - 1 : 0;
        on_path[g.find_edge(id(r, turn), id(r + 1, turn))] = 1;
      }
    }
    // Light weights are shuffled so Boruvka needs ~log n phases, with the
    // mid-run fragments forming long serpentine segments. Apex and non-path
    // grid edges are heavy, so they never shape the fragments.
    std::vector<Weight> light;
    for (Weight x = 1; x <= grid_n; ++x) light.push_back(x);
    Rng wrng(3);
    std::shuffle(light.begin(), light.end(), wrng);
    std::size_t li = 0;
    Weight next_heavy = 10 * static_cast<Weight>(g.num_vertices());
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      w[e] = on_path[e] ? light[li++] : next_heavy++;
  }

  // 3. One Session over the network, carrying the paper's apex certificate
  //    (Lemma 9): the uniform solver API for every workload. The shortcut
  //    run charges construction as one extra aggregation per fresh
  //    partition; the session cache serves revisited partitions for free.
  congest::SessionConfig cfg;
  cfg.tree = [apex](const Graph& gg) {
    return RootedTree::from_bfs(bfs(gg, apex), apex);
  };
  congest::Session session(g, apex_certificate({apex}), std::move(cfg));
  congest::RunReport with_shortcuts = session.solve(congest::Mst{w});

  // 4. The naive baseline on the SAME session: Boruvka where each fragment
  //    floods internally (no shortcuts, nothing constructed or charged).
  congest::SolveOptions flooding;
  flooding.use_shortcuts = false;
  congest::RunReport without = session.solve(congest::Mst{w}, flooding);

  // 5. Verify both against Kruskal.
  std::vector<EdgeId> ref = congest::kruskal_mst(g, w);
  std::sort(ref.begin(), ref.end());
  bool ok = with_shortcuts.mst().edges == ref && without.mst().edges == ref;
  std::printf("MST edges: %zu (kruskal: %zu) -> %s\n",
              with_shortcuts.mst().edges.size(), ref.size(),
              ok ? "verified" : "MISMATCH");
  std::printf("rounds with shortcuts:    %lld (%d phases, %lld cache hits)\n",
              with_shortcuts.total_rounds(), with_shortcuts.phases,
              with_shortcuts.cache_hits);
  std::printf("rounds without shortcuts: %lld (%d phases)\n",
              without.total_rounds(), without.phases);
  return ok ? 0 : 1;
}
