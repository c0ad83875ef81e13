// E16 (the Session thesis): multi-query traffic through one congest::Session
// vs cold per-call runs, on all four certificate families (planar,
// treewidth, apex, clique-sum). Two traffic patterns:
//
//   (a) k-source SSSP — k (1+eps) distance queries from spread-out sources
//       with source-independent Voronoi cells: the warm session builds each
//       partition's shortcut once and serves the remaining k-1 queries from
//       the cache, while the cold baseline re-pays construction per query.
//   (b) an MST -> min-cut -> SSSP analytics pipeline — one session amortizes
//       the partitions the workloads share (singleton, whole-network,
//       revisited Boruvka fragments) across all three.
//   (c) save -> restore across the process boundary (DESIGN.md §8) — a
//       warmed session is snapshotted and restored; the restored solves must
//       be BIT-IDENTICAL to the in-process warm solves and pay ZERO
//       construction charges (the snapshot carries the built shortcuts).
//
// "Beating" is deterministic, not a wall-clock artifact: warm total rounds
// (measured + charged construction, DESIGN.md §2) and shortcut builds
// (cache misses) must be strictly lower than cold at every size; measured
// rounds and all results are verified BIT-IDENTICAL to the cold runs and
// checked against the sequential oracles (Dijkstra / Kruskal /
// Stoer-Wagner). Wall time is reported alongside. Exits nonzero on any
// violation, so CI catches regressions.
//
// Set MNS_BENCH_SMOKE=1 to run the smallest instance per family (CI).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_instances.hpp"
#include "bench_util.hpp"
#include "congest/session.hpp"
#include "gen/apex.hpp"
#include "io/report_json.hpp"

using namespace mns;

namespace {

struct Instance {
  std::string family;
  Graph graph;
  std::vector<Weight> weights;
  StructuralCertificate cert;
};

std::vector<Instance> instances(bool smoke) {
  std::vector<Instance> out;
  for (int side : smoke ? std::vector<int>{16} : std::vector<int>{16, 32, 48}) {
    Graph g = gen::grid(side, side).graph();
    Rng rng(static_cast<unsigned>(side));
    std::vector<Weight> w = bench::dfs_light_weights(g, rng);
    out.push_back({"planar", std::move(g), std::move(w),
                   greedy_certificate()});
  }
  for (VertexId n : smoke ? std::vector<VertexId>{256}
                          : std::vector<VertexId>{256, 1024, 4096}) {
    Rng rng(static_cast<unsigned>(n));
    bench::HubbedKPath kt = bench::hubbed_kpath(n, 3);
    std::vector<Weight> w = bench::spine_light_weights(kt.graph, n, rng);
    out.push_back({"treewidth", std::move(kt.graph), std::move(w),
                   treewidth_certificate(std::move(kt.decomposition))});
  }
  for (int side : smoke ? std::vector<int>{16} : std::vector<int>{16, 32, 48}) {
    Rng rng(static_cast<unsigned>(100 + side));
    gen::ApexResult ar =
        gen::add_apices(gen::grid(side, side).graph(), 1, 0.10, rng);
    std::vector<Weight> w = bench::dfs_light_weights(ar.graph, rng);
    out.push_back({"apex", std::move(ar.graph), std::move(w),
                   apex_certificate(ar.apices)});
  }
  for (int bags : smoke ? std::vector<int>{4} : std::vector<int>{4, 16, 32}) {
    Rng rng(static_cast<unsigned>(bags));
    bench::ApexChain chain = bench::apexed_chain_cliquesum(bags, rng);
    StructuralCertificate cert = bench::apex_chain_certificate(chain);
    out.push_back({"cliquesum", std::move(chain.graph),
                   std::move(chain.weights), std::move(cert)});
  }
  return out;
}

/// Accumulated cost of a traffic batch.
struct Totals {
  long long total_rounds = 0;  ///< measured + charged
  long long charged = 0;
  long long messages = 0;
  long long misses = 0;
  long long hits = 0;
  double wall_ms = 0;
  void add(const congest::RunReport& r) {
    total_rounds += r.total_rounds();
    charged += r.charged_construction_rounds;
    messages += r.messages;
    misses += r.cache_misses;
    hits += r.cache_hits;
    wall_ms += r.wall_ms;
  }
};

congest::ApproxSssp sssp_query(const Instance& inst, VertexId source) {
  congest::ApproxSssp q{inst.weights, source};
  q.epsilon = 0.25;
  const VertexId n = inst.graph.num_vertices();
  q.num_seeds = std::max<VertexId>(
      8, static_cast<VertexId>(std::sqrt(static_cast<double>(n))) / 8);
  q.repartition_growth = 1.0;
  q.wavefront_seeds = false;  // source-independent cells: cacheable
  return q;
}

bool sssp_verified(const Instance& inst, const std::vector<Weight>& dist,
                   VertexId source, double eps) {
  ShortestPathResult oracle = dijkstra(inst.graph, inst.weights, source);
  for (VertexId v = 0; v < inst.graph.num_vertices(); ++v) {
    if (oracle.dist[v] == kUnreachedWeight || oracle.dist[v] == 0) continue;
    if (dist[v] < oracle.dist[v]) return false;
    if (static_cast<double>(dist[v]) >
        (1.0 + eps + 1e-9) * static_cast<double>(oracle.dist[v]))
      return false;
  }
  return true;
}

/// (a) k-source SSSP: one warm session vs k cold per-call runs.
bool run_ksource(bench::JsonReport& report, const Instance& inst, int k) {
  const VertexId n = inst.graph.num_vertices();
  std::vector<VertexId> sources;
  for (int i = 0; i < k; ++i)
    sources.push_back(static_cast<VertexId>(i) * n / static_cast<VertexId>(k));

  bool ok = true;
  Totals warm, cold;
  std::vector<std::vector<Weight>> warm_dist;
  std::vector<long long> warm_rounds;
  congest::Session session = bench::make_session(inst.graph, inst.cert);
  for (VertexId src : sources) {
    congest::RunReport r = session.solve(sssp_query(inst, src));
    ok = ok && sssp_verified(inst, r.sssp().dist, src, 0.25);
    warm_dist.push_back(r.sssp().dist);
    warm_rounds.push_back(r.rounds);
    warm.add(r);
  }
  congest::SolveOptions cold_opt;
  cold_opt.use_cache = false;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    congest::Session fresh = bench::make_session(inst.graph, inst.cert);
    congest::RunReport r = fresh.solve(sssp_query(inst, sources[i]), cold_opt);
    // Bit-identical distances AND measured rounds: the cache may only save
    // construction, never change the answer or the measured schedule.
    ok = ok && r.sssp().dist == warm_dist[i] && r.rounds == warm_rounds[i];
    cold.add(r);
  }
  const bool beats = warm.total_rounds < cold.total_rounds &&
                     warm.misses < cold.misses;
  ok = ok && beats;
  std::printf("%-10s n=%6d  k=%d sssp  warm: rounds=%8lld builds=%3lld "
              "hits=%3lld %8.1fms   cold: rounds=%8lld builds=%3lld "
              "%8.1fms  %s%s\n",
              inst.family.c_str(), n, k, warm.total_rounds, warm.misses,
              warm.hits, warm.wall_ms, cold.total_rounds, cold.misses,
              cold.wall_ms, beats ? "warm-wins" : "WARM-LOSES",
              ok ? "" : " MISMATCH");
  report.row().set("mode", "ksource-sssp").set("family", inst.family)
      .set("n", n).set("k", k)
      .set("warm_total_rounds", warm.total_rounds)
      .set("warm_charged", warm.charged)
      .set("warm_messages", warm.messages)
      .set("warm_builds", warm.misses).set("warm_hits", warm.hits)
      .set("warm_wall_ms", warm.wall_ms)
      .set("cold_total_rounds", cold.total_rounds)
      .set("cold_charged", cold.charged)
      .set("cold_messages", cold.messages)
      .set("cold_builds", cold.misses).set("cold_wall_ms", cold.wall_ms)
      .set("verified", ok ? "yes" : "no");
  return ok;
}

/// (b) MST -> min-cut -> SSSP pipeline: one session vs per-call cold runs.
bool run_pipeline(bench::JsonReport& report, const Instance& inst) {
  const VertexId n = inst.graph.num_vertices();
  congest::WorkloadParams params;
  params.weights = inst.weights;
  params.num_trees = 6;
  params.epsilon = 0.25;
  params.num_seeds = std::max<VertexId>(
      8, static_cast<VertexId>(std::sqrt(static_cast<double>(n))) / 8);
  params.repartition_growth = 1.0;
  params.wavefront_seeds = false;
  const char* stages[] = {"mst", "mincut", "sssp.approx"};

  bool ok = true;
  Totals warm, cold;
  std::vector<congest::RunReport> warm_runs, cold_runs;
  congest::Session session = bench::make_session(inst.graph, inst.cert);
  for (const char* stage : stages) {
    warm_runs.push_back(session.solve(stage, params));
    warm.add(warm_runs.back());
  }
  congest::SolveOptions cold_opt;
  cold_opt.use_cache = false;
  for (const char* stage : stages) {
    congest::Session fresh = bench::make_session(inst.graph, inst.cert);
    cold_runs.push_back(fresh.solve(stage, params, cold_opt));
    cold.add(cold_runs.back());
  }

  // Results and measured rounds bit-identical warm vs cold; answers checked
  // against the sequential oracles.
  std::vector<EdgeId> kruskal = congest::kruskal_mst(inst.graph, inst.weights);
  std::sort(kruskal.begin(), kruskal.end());
  ok = ok && warm_runs[0].mst().edges == kruskal &&
       cold_runs[0].mst().edges == kruskal;
  ok = ok && warm_runs[1].min_cut().value == cold_runs[1].min_cut().value;
  if (n <= 400) {
    const Weight exact = congest::exact_min_cut(inst.graph, inst.weights);
    ok = ok && warm_runs[1].min_cut().value >= exact &&
         warm_runs[1].min_cut().value <= 2 * exact + 1;
  }
  ok = ok && warm_runs[2].sssp().dist == cold_runs[2].sssp().dist &&
       sssp_verified(inst, warm_runs[2].sssp().dist, 0, 0.25);
  for (int i = 0; i < 3; ++i)
    ok = ok && warm_runs[i].rounds == cold_runs[i].rounds;

  const bool beats = warm.total_rounds < cold.total_rounds &&
                     warm.misses < cold.misses;
  ok = ok && beats;
  std::printf("%-10s n=%6d  pipeline   warm: rounds=%8lld builds=%3lld "
              "hits=%3lld %8.1fms   cold: rounds=%8lld builds=%3lld "
              "%8.1fms  %s%s\n",
              inst.family.c_str(), n, warm.total_rounds, warm.misses,
              warm.hits, warm.wall_ms, cold.total_rounds, cold.misses,
              cold.wall_ms, beats ? "warm-wins" : "WARM-LOSES",
              ok ? "" : " MISMATCH");
  report.row().set("mode", "pipeline").set("family", inst.family).set("n", n)
      .set("warm_total_rounds", warm.total_rounds)
      .set("warm_charged", warm.charged)
      .set("warm_messages", warm.messages)
      .set("warm_builds", warm.misses).set("warm_hits", warm.hits)
      .set("warm_wall_ms", warm.wall_ms)
      .set("cold_total_rounds", cold.total_rounds)
      .set("cold_charged", cold.charged)
      .set("cold_messages", cold.messages)
      .set("cold_builds", cold.misses).set("cold_wall_ms", cold.wall_ms)
      .set("verified", ok ? "yes" : "no");
  return ok;
}

/// (c) save -> restore: warm a session, snapshot it, restore, and require
/// the restored solves to be bit-identical with zero construction charges.
bool run_restore(bench::JsonReport& report, const Instance& inst) {
  const VertexId n = inst.graph.num_vertices();
  congest::WorkloadParams params;
  params.weights = inst.weights;
  params.epsilon = 0.25;
  params.num_seeds = std::max<VertexId>(
      8, static_cast<VertexId>(std::sqrt(static_cast<double>(n))) / 8);
  params.repartition_growth = 1.0;
  params.wavefront_seeds = false;
  const char* stages[] = {"mst", "sssp.approx"};
  const std::string path = "BENCH_session_restore_tmp.mns";

  bool ok = true;
  congest::Session warm = bench::make_session(inst.graph, inst.cert);
  for (const char* stage : stages) (void)warm.solve(stage, params);  // prime
  warm.save(path, inst.weights);
  std::vector<congest::RunReport> warm_runs;
  for (const char* stage : stages)
    warm_runs.push_back(warm.solve(stage, params));

  congest::Session restored = congest::Session::restore(path);
  for (std::size_t i = 0; i < std::size(stages); ++i) {
    congest::RunReport r = restored.solve(stages[i], params);
    const bool identical = mns::io::run_reports_identical(warm_runs[i], r);
    const bool free_of_charge =
        r.charged_construction_rounds == 0 && r.cache_misses == 0;
    ok = ok && identical && free_of_charge;
    std::printf("%-10s n=%6d  restore %-12s rounds=%8lld charged=%lld "
                "hits=%3lld  %s\n",
                inst.family.c_str(), n, stages[i], r.rounds,
                r.charged_construction_rounds, r.cache_hits,
                identical && free_of_charge ? "bit-identical"
                                            : "RESTORE-MISMATCH");
    report.row().set("mode", "restore").set("family", inst.family).set("n", n)
        .set("workload", stages[i]).set_run(r)
        .set("verified", identical && free_of_charge ? "yes" : "no");
  }
  std::remove(path.c_str());
  return ok;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("MNS_BENCH_SMOKE") != nullptr;
  bench::header("E16: session multi-query traffic (warm cache vs cold calls)");
  bench::JsonReport report("session");
  std::printf("k-source (1+eps) SSSP batches and MST->mincut->SSSP pipelines; "
              "smoke=%d\n\n", smoke);
  bool all_ok = true;
  for (const Instance& inst : instances(smoke)) {
    all_ok &= run_ksource(report, inst, /*k=*/6);
    all_ok &= run_pipeline(report, inst);
    all_ok &= run_restore(report, inst);
  }
  all_ok &= report.write();
  std::printf("\n%s\n", all_ok ? "all warm sessions beat cold construction, "
                                 "restored snapshots solve bit-identically "
                                 "for free, all results oracle-verified"
                               : "FAILURE: see rows above");
  return all_ok ? 0 : 1;
}
