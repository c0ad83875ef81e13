// Road-network shortest path: the same planar street grid + satellite apex
// as road_network_mst (a planar+apex excluded-minor network), now serving
// weighted distance queries — "how far is every intersection from the
// depot?". The adversarial toll weights make the true routes snake through
// the grid, so the exact distributed Bellman-Ford pays ~one round per snake
// hop while the shortcut-accelerated (1+eps) SSSP leaps whole Voronoi cells
// per aggregation.
//
//   $ ./examples/road_network_sssp   (exits 1 on any verification failure)
#include <algorithm>
#include <cstdio>

#include "congest/session.hpp"
#include "gen/apex.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"

int main() {
  using namespace mns;
  Rng rng(2026);

  const int rows = 48, cols = 48;
  EmbeddedGraph roads = gen::grid(rows, cols);
  gen::ApexResult with_satellite = gen::add_apices(roads.graph(), 1, 0.10, rng);
  const Graph& g = with_satellite.graph;

  // Adversarial toll weights: cheap roads trace a street-sweeping
  // (boustrophedon) route; every other road (and the satellite hops) costs
  // more than any all-cheap route, so true shortest paths follow the snake.
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
    Weight heavy =
        10 * static_cast<Weight>(g.num_vertices()) * g.num_vertices();
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      w[e] = on_route[e] ? light[li++] : heavy++;
  }
  const VertexId depot = 0;
  std::printf("road network: n=%d m=%d (satellite apex %d), depot=%d\n",
              g.num_vertices(), g.num_edges(), with_satellite.apices[0],
              depot);

  ShortestPathResult oracle = dijkstra(g, w, depot);
  bool ok = true;

  // One Session serves both the baseline and the accelerated query.
  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(5);
  congest::Session session(g, apex_certificate(with_satellite.apices),
                           std::move(cfg));

  // 1. Exact distributed Bellman-Ford (the baseline).
  congest::RunReport bf = session.solve(congest::ExactSssp{w, depot});
  bool bf_ok = bf.sssp().dist == oracle.dist;
  ok = ok && bf_ok;
  std::printf("%-38s rounds=%8lld  %s\n", "exact Bellman-Ford",
              bf.total_rounds(), bf_ok ? "verified" : "MISMATCH");

  // 2. Shortcut-accelerated (1+eps) SSSP with the apex certificate.
  const double eps = 0.25;
  congest::ApproxSssp query{w, depot};
  query.epsilon = eps;
  // Long Voronoi cells (each spans many snake hops per jump) and a single
  // partition phase — the tuning bench_rounds' E15 uses on every family.
  query.num_seeds = 8;
  query.repartition_growth = 1.0;
  congest::RunReport ap = session.solve(query);
  const std::vector<Weight>& ap_dist = ap.sssp().dist;
  double max_ratio = 1.0;
  bool ap_ok = true;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (oracle.dist[v] == kUnreachedWeight || oracle.dist[v] == 0) continue;
    if (ap_dist[v] < oracle.dist[v]) ap_ok = false;
    max_ratio = std::max(max_ratio, static_cast<double>(ap_dist[v]) /
                                        static_cast<double>(oracle.dist[v]));
  }
  ap_ok = ap_ok && max_ratio <= 1.0 + eps + 1e-9;
  ok = ok && ap_ok;
  std::printf("%-38s rounds=%8lld  %s (max ratio %.4f <= %.2f, %d phases, "
              "%lld jumps)\n",
              "(1+eps) SSSP, apex shortcuts", ap.total_rounds(),
              ap_ok ? "verified" : "MISMATCH", max_ratio, 1.0 + eps,
              ap.phases, ap.aggregations);
  std::printf("speedup: %.2fx fewer rounds than Bellman-Ford\n",
              static_cast<double>(bf.total_rounds()) /
                  static_cast<double>(ap.total_rounds()));
  return ok ? 0 : 1;
}
