// Network-analytics scenario: one long-lived congest::Session serving a
// whole analytics pipeline on one excluded-minor network — the multi-query
// traffic pattern the Session API exists for. A road grid with a satellite
// apex answers, in order:
//
//   1. "mst"          — the cheapest maintenance backbone,
//   2. "mincut"       — the network's weakest link capacity,
//   3. "sssp.approx"  — (1+eps) distances from each of several depots.
//
// Every query goes through the SAME session.solve() surface (selected by
// registry name, like ShortcutEngine's builder registry) and returns the
// same RunReport telemetry; the partition-keyed shortcut cache amortizes
// construction across the pipeline (the min-cut's packing MSTs revisit the
// MST's partitions; every depot after the first re-uses the SSSP cells).
// Every answer is verified against its sequential oracle (Kruskal,
// Stoer-Wagner, Dijkstra).
//
//   $ ./examples/network_analytics_session   (exits 1 on any mismatch)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "congest/mincut.hpp"
#include "congest/mst.hpp"
#include "congest/session.hpp"
#include "gen/apex.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "graph/algorithms.hpp"

int main() {
  using namespace mns;
  Rng rng(2026);

  // The road network: planar street grid + satellite uplink (planar+apex).
  const int rows = 32, cols = 32;
  gen::ApexResult net = gen::add_apices(gen::grid(rows, cols).graph(), 1,
                                        0.10, rng);
  const Graph& g = net.graph;
  std::vector<Weight> toll = gen::random_weights(g, 1, 50, rng);
  std::printf("network: n=%d m=%d (satellite apex %d)\n", g.num_vertices(),
              g.num_edges(), net.apices[0]);

  congest::Session session(g, apex_certificate(net.apices));
  std::printf("registered workloads:");
  for (const std::string& name : congest::builtin_workload_names())
    std::printf(" %s", name.c_str());
  std::printf("\n\n");
  std::printf("%-14s %10s %10s %9s %7s %11s  %s\n", "workload", "rounds",
              "messages", "charged", "cache", "wall(ms)", "verdict");

  bool ok = true;
  auto show = [&](const congest::RunReport& r, bool verified) {
    ok = ok && verified;
    char cache[32];
    std::snprintf(cache, sizeof cache, "%lld/%lld", r.cache_hits,
                  r.cache_misses);
    std::printf("%-14s %10lld %10lld %9lld %7s %11.2f  %s\n",
                r.workload.c_str(), r.rounds, r.messages,
                r.charged_construction_rounds, cache, r.wall_ms,
                verified ? "verified" : "MISMATCH");
  };

  congest::WorkloadParams params;
  params.weights = toll;

  // 1. MST vs Kruskal.
  congest::RunReport mst = session.solve("mst", params);
  std::vector<EdgeId> ref = congest::kruskal_mst(g, toll);
  std::sort(ref.begin(), ref.end());
  show(mst, mst.mst().edges == ref);

  // 2. Min cut vs Stoer-Wagner (within the packing guarantee).
  params.num_trees = 10;
  congest::RunReport cut = session.solve("mincut", params);
  Weight exact = congest::exact_min_cut(g, toll);
  show(cut, cut.min_cut().value >= exact &&
                cut.min_cut().value <= 2 * exact + 1);

  // 3. (1+eps) SSSP from several depots vs Dijkstra. Source-independent
  //    cells, so every depot after the first hits the session cache.
  params.epsilon = 0.25;
  params.num_seeds = 8;
  params.wavefront_seeds = false;
  for (VertexId depot : {0, 517, 1023}) {
    params.source = depot;
    congest::RunReport sssp = session.solve("sssp.approx", params);
    ShortestPathResult oracle = dijkstra(g, toll, depot);
    bool within = true;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (oracle.dist[v] == 0) continue;
      const double ratio = static_cast<double>(sssp.sssp().dist[v]) /
                           static_cast<double>(oracle.dist[v]);
      within = within && sssp.sssp().dist[v] >= oracle.dist[v] &&
               ratio <= 1.0 + params.epsilon + 1e-9;
    }
    show(sssp, within);
  }

  std::printf("\nsession totals: %lld cache hits / %lld misses across the "
              "pipeline\n",
              session.cache_hits(), session.cache_misses());
  return ok ? 0 : 1;
}
