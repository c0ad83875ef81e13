#include "common.hpp"

#include <cmath>
#include <cstdio>

#include <sys/resource.h>

#include "congest/mincut.hpp"
#include "congest/mis.hpp"
#include "congest/mst.hpp"
#include "gen/apex.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "graph/algorithms.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail tail_of(const std::vector<double>& v, double percentile) {
  Tail t;
  t.percentile = percentile;
  t.samples = v.size();
  t.value = quantile(v, percentile / 100.0);
  t.beyond = static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > t.value; }));
  return t;
}

double peak_rss_mib() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Result::fail(const std::string& why) {
  ++failed;
  if (failed <= 5) notes.push_back("FAILURE: " + why);
}

namespace {

/// Requests per second: the median rate over ten chunks of the run with
/// equal request counts, so a passing disturbance on a shared host slows a
/// few chunks rather than the reported rate.
double throughput_rps(std::vector<double> done_ms) {
  std::sort(done_ms.begin(), done_ms.end());
  const std::size_t n = done_ms.size();
  const std::size_t chunks = n >= 20 ? 10 : 1;
  std::vector<double> rates;
  for (std::size_t c = 0; c < chunks && n > 0; ++c) {
    const std::size_t lo = c * n / chunks, hi = (c + 1) * n / chunks;
    const double span = done_ms[hi - 1] - (lo == 0 ? 0.0 : done_ms[lo - 1]);
    if (span > 0.0) rates.push_back(static_cast<double>(hi - lo) * 1000.0 / span);
  }
  return median(std::move(rates));
}

}  // namespace

void LoopStats::finish(Result& out) const {
  const Tail tail = tail_of(latency_ms, tail_percentile);
  out.e2e["latency_p50_ms"] = median(latency_ms);
  out.e2e["latency_tail_ms"] = tail.value;
  out.e2e["throughput_rps"] = throughput_rps(done_ms);
  const double k = static_cast<double>(std::max<long long>(prefix_requests, 1));
  out.e2e["rounds_per_request"] = static_cast<double>(prefix_rounds) / k;
  out.e2e["messages_per_request"] = static_cast<double>(prefix_messages) / k;
  out.e2e["peak_rss_mib"] = peak_rss_mib();
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "latency_tail_ms is p%g: %zu samples, %zu beyond it%s",
                tail.percentile, tail.samples, tail.beyond,
                tail.beyond < 10 ? " (fewer than 10: run longer)" : "");
  out.notes.emplace_back(buf);
  double sum = 0.0;
  for (double x : latency_ms) sum += x;
  std::snprintf(buf, sizeof buf,
                "latency ms: mean %.3f p75 %.3f p90 %.3f p95 %.3f p99 %.3f",
                latency_ms.empty() ? 0.0 : sum / latency_ms.size(),
                quantile(latency_ms, 0.75), quantile(latency_ms, 0.90),
                quantile(latency_ms, 0.95), quantile(latency_ms, 0.99));
  out.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "rounds/messages_per_request cover the fixed first %lld "
                "requests",
                prefix_requests);
  out.notes.emplace_back(buf);
}

// ------------------------------------------------------------- instances --

congest::SessionConfig session_config() {
  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(1);
  cfg.execution.threads = 1;
  return cfg;
}

namespace {

/// The apexed clique-sum chain of bench_scale, kept here so the benchmark's
/// inputs do not move when the repository's own harnesses change: `bags`
/// 16 x 16 grids, each with a universal apex, consecutive bags glued at the
/// vertex where their boustrophedon serpentines meet (n = 256 * bags + 1).
/// Certified by the full Theorem 6 pipeline (folding + Lemma 9 apex-aware
/// local oracles).
Instance apexed_chain(int bags, Rng& rng) {
  constexpr int kSide = 16;
  constexpr VertexId kPer = kSide * kSide;
  std::vector<VertexId> snake;  // local ids in serpentine order
  for (int r = 0; r < kSide; ++r)
    for (int i = 0; i < kSide; ++i)
      snake.push_back(r * kSide + (r % 2 == 0 ? i : kSide - 1 - i));
  std::vector<std::vector<VertexId>> global(static_cast<std::size_t>(bags));
  VertexId next = 0;
  for (int b = 0; b < bags; ++b)
    for (VertexId l = 0; l < kPer; ++l)
      global[b].push_back(b > 0 && l == snake.front() ? global[b - 1][snake.back()]
                                                       : next++);
  const Graph cell = gen::grid_graph(kSide, kSide);
  std::vector<VertexId> apex(static_cast<std::size_t>(bags));
  for (VertexId& a : apex) a = next++;
  GraphBuilder gb(next);
  for (int b = 0; b < bags; ++b) {
    for (EdgeId e = 0; e < cell.num_edges(); ++e)
      gb.add_edge(global[b][cell.edge(e).u], global[b][cell.edge(e).v]);
    for (VertexId l = 0; l < kPer; ++l) gb.add_edge(apex[b], global[b][l]);
  }
  Graph g = gb.build();

  std::vector<std::vector<VertexId>> bag_vertices(bags), parent_clique(bags),
      bag_apices(bags);
  std::vector<std::vector<EdgeId>> bag_edges(bags);
  std::vector<BagId> parent(bags);
  for (int b = 0; b < bags; ++b) {
    bag_vertices[b] = global[b];
    bag_vertices[b].push_back(apex[b]);
    bag_apices[b] = {apex[b]};
    for (EdgeId e = 0; e < cell.num_edges(); ++e)
      bag_edges[b].push_back(
          g.find_edge(global[b][cell.edge(e).u], global[b][cell.edge(e).v]));
    for (VertexId l = 0; l < kPer; ++l)
      bag_edges[b].push_back(g.find_edge(apex[b], global[b][l]));
    parent[b] = static_cast<BagId>(b) - 1;
    if (b > 0) parent_clique[b] = {global[b][snake.front()]};
  }

  // One continuous light route through every serpentine; everything else
  // (every apex edge included) is heavier than any all-light path.
  std::vector<char> on_route(static_cast<std::size_t>(g.num_edges()), 0);
  Weight light = 0;
  for (int b = 0; b < bags; ++b)
    for (std::size_t i = 0; i + 1 < snake.size(); ++i)
      on_route[g.find_edge(global[b][snake[i]], global[b][snake[i + 1]])] = 1;
  for (char c : on_route) light += c;
  std::vector<Weight> light_w(static_cast<std::size_t>(light));
  for (Weight i = 0; i < light; ++i) light_w[i] = i + 1;
  std::shuffle(light_w.begin(), light_w.end(), rng);
  Weight heavy = 10 * static_cast<Weight>(g.num_vertices()) *
                 static_cast<Weight>(g.num_vertices());
  std::vector<Weight> w(static_cast<std::size_t>(g.num_edges()));
  std::size_t li = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    w[e] = on_route[e] ? light_w[li++] : heavy++;

  CliqueSumCertificate cert{
      CliqueSumDecomposition(std::move(bag_vertices), std::move(bag_edges),
                             std::move(parent), std::move(parent_clique)),
      /*fold=*/true, OracleKind::kGreedy, /*apex_aware=*/true,
      std::move(bag_apices)};
  return {"cliquesum", std::move(g), std::move(cert), std::move(w)};
}

}  // namespace

std::vector<Instance> serve_instances(std::uint64_t seed, bool tiny) {
  std::vector<Instance> out;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 71);
  const int side = tiny ? 10 : 32;
  {
    Graph g = gen::grid_graph(side, side);
    std::vector<Weight> w = gen::unique_random_weights(g, rng);
    out.push_back({"planar", std::move(g), greedy_certificate(), std::move(w)});
  }
  {
    gen::KTreeResult kt = gen::random_ktree(tiny ? 96 : 1024, 3, rng);
    std::vector<Weight> w = gen::unique_random_weights(kt.graph, rng);
    out.push_back({"treewidth", std::move(kt.graph),
                   treewidth_certificate(std::move(kt.decomposition)),
                   std::move(w)});
  }
  {
    gen::ApexResult ar =
        gen::add_apices(gen::grid_graph(side, side), 1, 0.1, rng);
    std::vector<Weight> w = gen::unique_random_weights(ar.graph, rng);
    out.push_back({"apex", std::move(ar.graph), apex_certificate(ar.apices),
                   std::move(w)});
  }
  {
    Graph bag = gen::triangulated_grid(4, 4).graph();
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < (tiny ? 5 : 16); ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
    gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
    std::vector<Weight> w = gen::unique_random_weights(cs.graph, rng);
    out.push_back({"cliquesum", std::move(cs.graph),
                   cliquesum_certificate(std::move(cs.decomposition)),
                   std::move(w)});
  }
  return out;
}

std::vector<Instance> churn_instances(std::uint64_t seed, bool tiny) {
  std::vector<Instance> out;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 18);
  for (int copy = 0; copy < 2; ++copy) {
    const int side = tiny ? 16 : 64;
    Graph g = gen::grid_graph(side, side);
    std::vector<Weight> w = gen::unique_random_weights(g, rng);
    out.push_back({"planar", std::move(g), greedy_certificate(), std::move(w)});
    out.push_back(apexed_chain(tiny ? 2 : 16, rng));
  }
  return out;
}

std::vector<Instance> dist_instances(std::uint64_t seed, bool tiny) {
  std::vector<Instance> out;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 79);
  for (int copy = 0; copy < 2; ++copy) {
    const int side = tiny ? 8 : 24;
    Graph g = gen::grid_graph(side, side);
    std::vector<Weight> w = gen::unique_random_weights(g, rng);
    out.push_back({"planar", std::move(g), greedy_certificate(), std::move(w)});
    gen::KTreeResult kt = gen::random_ktree(tiny ? 96 : 512, 3, rng);
    w = gen::unique_random_weights(kt.graph, rng);
    out.push_back({"treewidth", std::move(kt.graph),
                   treewidth_certificate(std::move(kt.decomposition)),
                   std::move(w)});
  }
  return out;
}

// --------------------------------------------------------------- oracles --

std::string check_mst(const Graph& g, const std::vector<Weight>& w,
                      const congest::RunReport& r) {
  std::vector<EdgeId> oracle = congest::kruskal_mst(g, w);
  std::sort(oracle.begin(), oracle.end());
  std::vector<EdgeId> got = r.mst().edges;
  std::sort(got.begin(), got.end());
  return got == oracle ? "" : "mst differs from Kruskal";
}

std::string check_sssp(const Graph& g, const std::vector<Weight>& w,
                       VertexId source, double epsilon,
                       const congest::RunReport& r) {
  const ShortestPathResult oracle = dijkstra(g, w, source);
  const std::vector<Weight>& dist = r.sssp().dist;
  if (dist.size() != oracle.dist.size()) return "sssp: wrong length";
  for (std::size_t v = 0; v < dist.size(); ++v) {
    if (oracle.dist[v] == kUnreachedWeight) continue;
    if (dist[v] < oracle.dist[v] ||
        static_cast<double>(dist[v]) >
            (1.0 + epsilon + 1e-9) * static_cast<double>(oracle.dist[v]))
      return "sssp: vertex " + std::to_string(v) + " outside (1+eps) bound";
  }
  return "";
}

std::string check_mincut(const Graph& g, const std::vector<Weight>& w,
                         const congest::RunReport& r) {
  const Weight exact = congest::exact_min_cut(g, w);
  const Weight got = r.min_cut().value;
  if (got < exact || got > 2 * exact + 1)
    return "mincut " + std::to_string(got) + " vs Stoer-Wagner " +
           std::to_string(exact);
  return "";
}

std::string check_mis(const Graph& g, const congest::RunReport& r) {
  const std::string why =
      congest::verify_maximal_independent_set(g, r.mis().in_mis);
  return why.empty() ? "" : "mis: " + why;
}

}  // namespace perfbench
