// E18 (the memory thesis, DESIGN.md §9): the packed-wire round engine, its
// buffers reused across rounds, runs planar and clique-sum instances at
// n = 2^20 through the full Session pipeline (mst, then sssp.approx) inside
// a stated peak-RSS budget.
//
// Two instances, one per streamed generator path:
//
//   planar    — the 1024 x 1024 grid (gen::grid_graph: edges stream straight
//               into the builder; no embedding rotations are materialized),
//               greedy certificate, uniform-random weights (capacity regime,
//               see bench_instances.hpp: adversarial weights multiply
//               traffic ~4x without changing what this gate measures).
//   cliquesum — the apexed-grid chain (bench_instances) at the bag count
//               whose vertex total reaches 2^20, through the full Theorem 6
//               pipeline (folding + Lemma 9 apex-aware local oracles), with
//               its serpentine chain weights.
//
// Every row records the Session telemetry (rounds/messages — deterministic,
// diffed by the CI gate) plus the process peak RSS and its verdict against
// the DESIGN.md §9 budget
//
//     budget(n) = kBudgetFixedBytes + kBudgetPerVertexBytes * n
//
// `rss_budget_ok` is the gated field: peak RSS itself varies across
// machines/allocators (mnsctl diff masks it as volatile), but whether the
// run fits the stated envelope must not. Results are verified against the
// sequential oracles (Kruskal / Dijkstra); any mismatch or budget violation
// exits nonzero.
//
// Set MNS_BENCH_SMOKE=1 for the n = 2^14 shapes of the same two instances
// (CI); the committed baseline bench/baselines/scale.json is the smoke run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_instances.hpp"
#include "bench_util.hpp"
#include "congest/mst.hpp"
#include "congest/session.hpp"
#include "gen/planar.hpp"

using namespace mns;

namespace {

// DESIGN.md §9 peak-RSS budget: fixed process overhead (binary, runtime,
// shortcut-engine registry, JSON report) plus a per-vertex envelope covering
// the instance (graph + weights), the session (tree + cached shortcuts) and
// the solves' working state. Peak RSS grows superlinearly in n (measured
// ~x7.2 per x4 vertices on the planar family: 317 MiB at 2^16, 2.2 GiB at
// 2^18, Release, 4-core box), and where that growth lives is unmeasured:
// neither construction's (set, vertex) table nor the round buffers were it
// (ROADMAP item 1). The LINEAR envelope is therefore calibrated at the
// binding top scale (n = 2^20; set with ~25% headroom over an extrapolated
// ~21 GiB peak, which the figures above now put near 16 GiB; it is refit
// from a full-depth run) and is deliberately loose at smoke sizes — the
// verdict still catches order-of-magnitude regressions there, and the
// n = 2^20 rows are the real subject.
constexpr long long kBudgetFixedBytes = 256LL << 20;   // 256 MiB
constexpr long long kBudgetPerVertexBytes = 26LL << 10;  // 26 KiB / vertex

[[nodiscard]] long long rss_budget_bytes(VertexId n) {
  return kBudgetFixedBytes + kBudgetPerVertexBytes * static_cast<long long>(n);
}

/// Runs mst then sssp.approx on one instance through a single Session and
/// records one row per workload. Returns false on any verification failure
/// or budget violation.
bool run_instance(bench::JsonReport& report, const char* family, Graph graph,
                  std::vector<Weight> weights, StructuralCertificate cert) {
  const VertexId n = graph.num_vertices();
  const EdgeId m = graph.num_edges();
  const long long budget = rss_budget_bytes(n);
  congest::Session session = bench::make_session(graph, std::move(cert));

  bool ok = true;
  auto emit = [&](const char* workload, const congest::RunReport& r,
                  bool verified) {
    const long long rss = bench::peak_rss_bytes();
    const bool fits = rss <= budget;
    std::printf("%-10s n=%8d m=%8d  %-12s rounds=%9lld  messages=%12lld  "
                "peak_rss=%6.1f MiB  budget=%6.1f MiB %s%s\n",
                family, n, m, workload, r.total_rounds(), r.messages,
                static_cast<double>(rss) / (1 << 20),
                static_cast<double>(budget) / (1 << 20),
                verified ? "" : "MISMATCH ", fits ? "" : "OVER-BUDGET");
    // A full-depth row takes minutes; show it even when stdout is a file.
    std::fflush(stdout);
    report.row()
        .set("family", family)
        .set("n", n)
        .set("m", m)
        .set("workload", workload)
        .set_run(r)
        .set("rss_budget_bytes", budget)
        .set("rss_budget_ok", fits ? "yes" : "no")
        .set("verified", verified ? "yes" : "no");
    ok = ok && verified && fits;
  };

  // -- mst: Boruvka over shortcut-backed aggregations, checked edge-for-edge
  // against Kruskal --
  congest::RunReport mst = session.solve(congest::Mst{weights});
  std::vector<EdgeId> oracle_mst = congest::kruskal_mst(graph, weights);
  std::sort(oracle_mst.begin(), oracle_mst.end());
  emit("mst", mst, mst.mst().edges == oracle_mst);

  // -- sssp.approx: source-independent long Voronoi cells (the cacheable
  // configuration benched everywhere else), checked against Dijkstra --
  const congest::ApproxSssp query =
      bench::long_cells(congest::ApproxSssp{std::move(weights), 0}, n);
  congest::RunReport sssp = session.solve(query);
  const bool approx_ok =
      bench::check_approx_sssp(graph, query.weights, 0, sssp.sssp().dist).ok;
  emit("sssp.approx", sssp, approx_ok);
  return ok;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("MNS_BENCH_SMOKE") != nullptr;
  bench::header("E18: memory-lean round engine at n = 2^20");
  bench::JsonReport report("scale");
  std::printf("peak-RSS budget: %lld MiB + %lld B/vertex (DESIGN.md §9); "
              "smoke=%d\n\n",
              kBudgetFixedBytes >> 20, kBudgetPerVertexBytes, smoke);

  bool all_ok = true;

  // -- planar: side x side grid, streamed build --
  {
    const int side = smoke ? 128 : 1024;  // n = 2^14 / 2^20
    Graph g = gen::grid_graph(side, side);
    Rng rng(static_cast<unsigned>(side));
    std::vector<Weight> w = bench::uniform_weights(g, rng);
    all_ok &= run_instance(report, "planar", std::move(g), std::move(w),
                           greedy_certificate());
  }

  // -- clique-sum: apexed-grid chain; 256 fresh vertices + 1 apex per bag
  // (n = 256 * bags + 1), so 2^14 / 2^20 vertices at 64 / 4096 bags --
  {
    bench::FamilyInstance chain =
        bench::family_instance("cliquesum", smoke ? 64 : 4096);
    all_ok &= run_instance(report, "cliquesum", std::move(chain.graph),
                           std::move(chain.weights), std::move(chain.cert));
  }

  all_ok &= report.write();
  return all_ok ? 0 : 1;
}
