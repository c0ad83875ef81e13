// Road-network scenario: a planar road map plus a satellite uplink reaching a
// random subset of towns — i.e., a planar graph with an apex (Definition 2),
// the canonical excluded-minor network that is NOT planar and where planar
// algorithms break (see the paper's robustness discussion in §1). Computes a
// distributed MST three ways, reports rounds, and checks each edge set
// against Kruskal's (exit 1 on a mismatch).
//
//   $ ./examples/road_network_mst
#include <algorithm>
#include <cstdio>

#include "congest/mst.hpp"
#include "congest/session.hpp"
#include "gen/apex.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "graph/algorithms.hpp"

int main() {
  using namespace mns;
  Rng rng(2026);

  // Manhattan-style street grid (roads are sparse!) plus a satellite uplink
  // reaching a random ~10% of intersections — a planar + apex network.
  const int rows = 60, cols = 60;
  EmbeddedGraph roads = gen::grid(rows, cols);
  gen::ApexResult with_satellite = gen::add_apices(roads.graph(), 1, 0.10, rng);
  const Graph& g = with_satellite.graph;

  // Adversarial toll weights: the cheap roads trace a street-sweeping
  // (boustrophedon) route, so MST fragments grow into long snakes — the
  // worst case the shortcut guarantee covers. Random weights would keep
  // fragments compact and make even naive flooding fast.
  std::vector<Weight> w(g.num_edges(), 0);
  {
    auto id = [&](int r, int c) { return static_cast<VertexId>(r * cols + c); };
    std::vector<char> on_route(g.num_edges(), 0);
    int route_len = 0;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c + 1 < cols; ++c) {
        on_route[g.find_edge(id(r, c), id(r, c + 1))] = 1;
        ++route_len;
      }
      if (r + 1 < rows) {
        int turn = (r % 2 == 0) ? cols - 1 : 0;
        on_route[g.find_edge(id(r, turn), id(r + 1, turn))] = 1;
        ++route_len;
      }
    }
    std::vector<Weight> light(route_len);
    for (int i = 0; i < route_len; ++i) light[i] = i + 1;
    std::shuffle(light.begin(), light.end(), rng);
    std::size_t li = 0;
    Weight heavy = 10 * static_cast<Weight>(g.num_vertices());
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      w[e] = on_route[e] ? light[li++] : heavy++;
  }
  std::printf("road network: n=%d m=%d diameter=%d (satellite apex %d)\n",
              g.num_vertices(), g.num_edges(), diameter_exact(g),
              with_satellite.apices[0]);

  // The weights are distinct, so the MST is unique: every variant must
  // return exactly Kruskal's edge set.
  std::vector<EdgeId> ref = congest::kruskal_mst(g, w);
  std::sort(ref.begin(), ref.end());
  bool ok = true;
  auto record = [&](const char* name, const congest::RunReport& res) {
    std::vector<EdgeId> edges = res.mst().edges;
    std::sort(edges.begin(), edges.end());
    const bool same = edges == ref;
    ok = ok && same;
    std::printf("%-34s rounds=%8lld phases=%2d  %s\n", name,
                res.total_rounds(), res.phases, same ? "verified" : "MISMATCH");
  };

  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(5);

  // 1. Apex-aware shortcuts (Lemma 9): the paper's construction. The
  //    session's certificate IS the structural knowledge; solve() does the
  //    rest.
  congest::Session session(g, apex_certificate(with_satellite.apices), cfg);
  record("apex-aware shortcuts (Lemma 9)", session.solve(congest::Mst{w}));

  // 2. Structure-oblivious greedy shortcuts: swap the certificate (this
  //    invalidates the session's shortcut cache) and re-solve.
  session.set_certificate(greedy_certificate());
  record("structure-oblivious greedy", session.solve(congest::Mst{w}));

  // 3. No shortcuts: the flooding baseline on the same session.
  congest::SolveOptions flooding;
  flooding.use_shortcuts = false;
  record("no shortcuts", session.solve(congest::Mst{w}, flooding));
  return ok ? 0 : 1;
}
