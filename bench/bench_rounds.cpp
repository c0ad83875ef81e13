// The paper's round claims in one table: do shortcuts buy rounds? E11 and
// E12 (Corollary 1) run MST and min-cut on small-diameter minor-free
// networks, E13 (Theorem 1's mechanism) puts the rounds of one part-wise
// aggregation beside the quality q = b*d + c of the shortcut that carried
// it, and E15 runs SSSP, the abstract's third problem. One function per
// experiment; every row is tagged "experiment": "E<k>" and records
// "verified" against a sequential oracle (E13 also against its quality
// bound). Writes BENCH_rounds.json, which CI diffs against
// bench/baselines/rounds.json (DESIGN.md §8). Fixed seeds, so every run
// gives the same rows; main exits nonzero if any row fails its verdict or
// the report cannot be written.
//
// Set MNS_BENCH_SMOKE=1 to run only the smallest E15 instance per family
// (CI); E11-E13 always run in full. At full depth main also exits nonzero
// unless E15's claim holds: vs_bellman_ford > 1 at each family's largest n.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_instances.hpp"
#include "bench_util.hpp"
#include "congest/distributed_shortcut.hpp"
#include "congest/mincut.hpp"
#include "congest/mst.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/lower_bound.hpp"
#include "gen/planar.hpp"
#include "gen/series_parallel.hpp"
#include "gen/weights.hpp"

using namespace mns;
using bench::Method;
using bench::row;

namespace {

/// The one failure policy: records the row's oracle verdict, prints the
/// row, and returns the verdict for main's exit status.
bool verdict(bench::JsonRow& r, bool ok) {
  bench::print(r.set("verified", ok ? "yes" : "no"));
  return ok;
}

// E11 (Corollary 1): Õ(D^2)-round MST against the Õ(D + sqrt(n))
// controlled-GHS baseline and naive no-shortcut Borůvka, all three served by
// one Session per instance and checked edge for edge against Kruskal. Two
// families: the paper's motivating grid + apex (diameter ~4) with
// adversarial serpentine weights, and the [SHK+12]-style lower-bound graph
// (diameter O(log n)), the instance minor-freeness excludes, where no
// algorithm beats ~sqrt(n).
bool e11_case(bench::JsonReport& report, const char* family, const Graph& g,
              const std::vector<Weight>& w, StructuralCertificate cert) {
  std::vector<EdgeId> ref = congest::kruskal_mst(g, w);
  std::sort(ref.begin(), ref.end());
  const int diameter = diameter_exact(g);
  congest::Session session = bench::make_session(g, std::move(cert));
  congest::SolveOptions flooding;
  flooding.use_shortcuts = false;
  const std::pair<const char*, congest::RunReport> runs[] = {
      {"shortcut Boruvka", session.solve(congest::Mst{w})},
      {"naive Boruvka", session.solve(congest::Mst{w}, flooding)},
      {"controlled-GHS", session.solve(congest::GhsMst{w})}};
  bool ok = true;
  for (const auto& [method, res] : runs)
    ok &= verdict(row(report, "E11").set("family", family)
                      .set("n", g.num_vertices()).set("diameter", diameter)
                      .set("method", method).set_run(res),
                  res.mst().edges == ref);
  return ok;
}

bool e11_mst(bench::JsonReport& report) {
  bench::header("E11: MST rounds (Corollary 1 vs baselines)");
  bool ok = true;
  for (auto [rows, cols] : {std::pair{32, 16}, {32, 32}, {64, 32}, {64, 64}}) {
    bench::GridApexInstance inst = bench::grid_apex_instance(rows, cols, 3);
    ok &= e11_case(report, "grid+apex", inst.graph, inst.weights,
                   apex_certificate(inst.apices));
  }
  for (int p : {8, 12, 16}) {
    gen::LowerBoundGraph lb = gen::lower_bound_graph(p);
    Rng rng(static_cast<unsigned>(p));
    ok &= e11_case(report, "lower-bound", lb.graph,
                   gen::unique_random_weights(lb.graph, rng),
                   greedy_certificate());
  }
  return ok;
}

// E12 (Corollary 1, min-cut side): tree-packing min-cut, whose rounds are
// dominated by its MST subroutine, so the Õ(D^2) shape carries over. The
// packing MSTs share the session's shortcut cache. No cut is lighter than
// exact Stoer-Wagner's.
bool e12_case(bench::JsonReport& report, const char* family, const Graph& g,
              const std::vector<Weight>& w) {
  const Weight exact = congest::exact_min_cut(g, w);
  congest::Session session = bench::make_session(g, greedy_certificate());
  congest::MinCut query{w};
  query.num_trees = 8;
  query.two_respecting = g.num_vertices() <= 256;  // O(n^2) verifier scale
  congest::RunReport res = session.solve(query);
  const Weight packed = res.min_cut().value;
  return verdict(row(report, "E12").set("family", family)
                     .set("n", g.num_vertices())
                     .set("exact", static_cast<long long>(exact))
                     .set("packed", static_cast<long long>(packed))
                     .set_run(res).set("trees", res.min_cut().trees),
                 exact <= packed);
}

bool e12_mincut(bench::JsonReport& report) {
  bench::header("E12: min-cut via tree packing (Corollary 1)");
  bool ok = true;
  for (int n : {100, 200, 400}) {
    Rng rng(static_cast<unsigned>(n));
    EmbeddedGraph eg = gen::random_maximal_planar(n, rng);
    ok &= e12_case(report, "maximal planar", eg.graph(),
                   gen::random_weights(eg.graph(), 1, 40, rng));
  }
  for (int regions : {4, 8}) {
    Rng rng(static_cast<unsigned>(regions * 13));
    std::vector<gen::BagInput> bags;
    for (int i = 0; i < regions; ++i) {
      Graph sp = gen::random_series_parallel(30, rng);
      bags.push_back({sp, gen::default_glue_cliques(sp, 2)});
    }
    gen::CliqueSumResult r = gen::compose_clique_sum(bags, 2, 0.0, rng);
    const std::string family = "SP clique-sum x" + std::to_string(regions);
    ok &= e12_case(report, family.c_str(), r.graph,
                   gen::random_weights(r.graph, 1, 40, rng));
  }
  return ok;
}

// E13 (Theorem 1's mechanism): measured aggregation rounds track shortcut
// quality q = b*d + c. Same network and parts, a different shortcut per row:
// none (flooding), then one certificate per row swapped into a shared
// Session (set_certificate invalidates the cache, analyze() measures the
// build and seeds it, solve(Aggregate) measures the rounds). A row is
// verified only if its part minima match a sequential scan of the same
// inputs and its measured rounds do not exceed the quality (Theorem 1's
// bound).

/// Per-vertex inputs from a multiplicative hash, tie-broken by vertex id.
std::vector<congest::AggValue> hashed_values(VertexId n) {
  std::vector<congest::AggValue> init(n);
  for (VertexId v = 0; v < n; ++v)
    init[v] = {static_cast<Weight>((v * 2654435761u) % 100000), v};
  return init;
}

/// The sequential oracle: each part's least input.
std::vector<congest::AggValue> part_minima(
    const Partition& parts, const std::vector<congest::AggValue>& init) {
  std::vector<congest::AggValue> out(parts.num_parts());
  for (PartId p = 0; p < parts.num_parts(); ++p) {
    const auto members = parts.members(p);
    out[p] = init[*std::min_element(
        members.begin(), members.end(),
        [&](VertexId a, VertexId b) { return init[a] < init[b]; })];
  }
  return out;
}

bool e13_instance(bench::JsonReport& report, congest::Session& session,
                  const Partition& parts, const std::vector<Method>& methods) {
  const Graph& g = session.graph();
  const std::vector<congest::AggValue> init = hashed_values(g.num_vertices());
  const std::vector<congest::AggValue> want = part_minima(parts, init);
  auto record = [&](const char* method, const ShortcutMetrics& m,
                    const congest::RunReport& res) {
    return verdict(row(report, "E13").set("method", method)
                       .set("n", g.num_vertices()).set_metrics(m).set_run(res),
                   res.aggregate().min_of_part == want &&
                       res.rounds <= m.quality);
  };
  const ShortcutMetrics none =
      measure_shortcut(g, session.tree(), parts, empty_shortcut(parts));
  congest::SolveOptions flooding;
  flooding.use_shortcuts = false;
  bool ok = record("none (flooding)", none,
                   session.solve(congest::Aggregate{parts, init}, flooding));
  for (const Method& m : methods) {
    session.set_certificate(m.cert);
    const ShortcutMetrics built = session.analyze(parts).metrics;
    ok &= record(m.name, built,
                 session.solve(congest::Aggregate{parts, init}));
  }
  return ok;
}

bool e13_aggregation(bench::JsonReport& report) {
  bench::header("E13: quality -> rounds (Theorem 1 mechanism)");
  // Wheel with 8 ring sectors, the apex pathology, on a tree rooted at the hub.
  const VertexId n = 4002;
  const Graph wheel = gen::wheel(n);
  const Partition sectors = ring_sectors(n, 1, n - 1, 8);
  congest::SessionConfig hub_rooted;
  hub_rooted.tree = [](const Graph& gg) {
    return RootedTree::from_bfs(bfs(gg, 0), 0);
  };
  congest::Session wheel_session(wheel, greedy_certificate(),
                                 std::move(hub_rooted));
  bool ok = e13_instance(report, wheel_session, sectors,
                         {{"ancestor climb h=4", ancestor_certificate(4)},
                          {"steiner", steiner_certificate()},
                          {"greedy [HIZ16a]", greedy_certificate()},
                          {"apex-aware (Lemma 9)", apex_certificate({0})}});

  // 48x48 grid, serpentine zones.
  const int s = 48;
  congest::Session grid_session =
      bench::make_session(gen::grid(s, s).graph(), greedy_certificate());
  ok &= e13_instance(report, grid_session, grid_serpentines(s, s, 6),
                     {{"ancestor climb h=8", ancestor_certificate(8)},
                      {"steiner", steiner_certificate()},
                      {"greedy [HIZ16a]", greedy_certificate()}});

  // Fully distributed: the wheel's construction itself runs on the
  // simulator before the aggregation it serves.
  const RootedTree t = RootedTree::from_bfs(bfs(wheel, 0), 0);
  congest::Simulator sim(wheel);
  const congest::DistributedShortcutResult built =
      congest::distributed_capped_greedy(sim, t, sectors, 8);
  const long long construction = sim.rounds();
  congest::PartwiseAggregator agg(wheel, sectors, built.shortcut);
  const std::vector<congest::AggValue> init = hashed_values(n);
  const congest::AggregationResult res = agg.aggregate_min(sim, init);
  const ShortcutMetrics m = measure_shortcut(wheel, t, sectors, built.shortcut);
  ok &= verdict(row(report, "E13").set("method", "distributed greedy cap=8")
                    .set("n", n)
                    .set_metrics(m)
                    .set("construction_rounds", construction)
                    .set("rounds", res.rounds)
                    .set("messages", sim.messages_sent()),
                res.min_of_part == part_minima(sectors, init) &&
                    res.rounds <= m.quality);
  return ok;
}

// E15 (the abstract's third problem): exact lock-step Bellman-Ford, whose
// rounds are the shortest-path hop count, against the (1+eps) SSSP with
// shortcut-backed cluster jumps, on all four certificate families. Every
// instance is weighted so that a long cheap route forces Bellman-Ford to pay
// one round per hop while the hop diameter stays small; cluster jumps leap
// whole Voronoi cells. Checked against Dijkstra: exact for Bellman-Ford,
// within [d, (1+eps) d] for the approximation. Sets `vs_bellman_ford` to
// the row's round ratio.
bool e15_case(bench::JsonReport& report, const bench::FamilyInstance& inst,
              double& vs_bellman_ford) {
  const Graph& g = inst.graph;
  const VertexId source = 0;
  congest::Session session = bench::make_session(g, inst.cert);
  const congest::RunReport bf =
      session.solve(congest::ExactSssp{inst.weights, source});
  const bool exact_ok =
      bf.sssp().dist == dijkstra(g, inst.weights, source).dist;

  // The long cells, seeded along the source's wavefront rather than
  // source-independently.
  congest::ApproxSssp query = bench::long_cells(
      congest::ApproxSssp{inst.weights, source}, g.num_vertices());
  query.wavefront_seeds = true;
  const congest::RunReport ap = session.solve(query);
  const bench::ApproxCheck approx = bench::check_approx_sssp(
      g, inst.weights, source, ap.sssp().dist);
  vs_bellman_ford = static_cast<double>(bf.total_rounds()) /
                    static_cast<double>(ap.total_rounds());
  return verdict(
      row(report, "E15").set("family", inst.family).set("n", g.num_vertices())
          .set("epsilon", query.epsilon)
          .set("rounds_bellman_ford", bf.total_rounds())
          .set("messages_bellman_ford", bf.messages)
          .set("vs_bellman_ford", vs_bellman_ford)
          .set_run(ap).set("jumps", ap.aggregations)
          .set("max_ratio", approx.max_ratio),
      exact_ok && approx.ok);
}

// E15's claim: the (1+eps) SSSP takes fewer rounds than Bellman-Ford at the
// largest n of every family. Small instances may legitimately lose (the
// smallest planar row does), so a smoke run, which keeps only each family's
// smallest instance, is exempt.
bool e15_sssp(bench::JsonReport& report, bool smoke) {
  bench::header("E15: SSSP rounds ((1+eps) vs Bellman-Ford)");
  bool ok = true;
  // Per family: (n, vs_bellman_ford) of its largest instance so far.
  std::map<std::string, std::pair<VertexId, double>> largest;
  for (const bench::FamilyInstance& inst : bench::family_instances(
           {16, 32, 64}, {256, 1024, 4096}, {16, 32, 64}, {4, 16, 64},
           smoke)) {
    double vs_bellman_ford = 0;
    ok &= e15_case(report, inst, vs_bellman_ford);
    largest[inst.family] = std::max(
        largest[inst.family],
        std::pair{inst.graph.num_vertices(), vs_bellman_ford});
  }
  if (smoke) return ok;
  for (const auto& [family, at] : largest)
    if (!(at.second > 1.0)) {
      std::fprintf(stderr,
                   "E15 %s: vs_bellman_ford = %.3f at its largest n = %d, "
                   "not above 1\n",
                   family.c_str(), at.second, static_cast<int>(at.first));
      ok = false;
    }
  return ok;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("MNS_BENCH_SMOKE") != nullptr;
  bench::JsonReport report("rounds");
  bool ok = e11_mst(report);
  ok &= e12_mincut(report);
  ok &= e13_aggregation(report);
  ok &= e15_sssp(report, smoke);
  // A report that cannot be written is a failed run: CI diffs the file.
  ok &= report.write();
  return ok ? 0 : 1;
}
