// The Session layer's contract in one table: reusing the one shortcut
// structure (Theorem 1, Corollary 1) may change what a solve costs, never
// what it answers. E16 compares warm, cold and snapshot-restored sessions,
// E17 thread widths, E19 concurrent serving over one shared core, E20 ranks
// over a socket transport, E21 incrementally updated against rebuilt
// sessions, and E22 the MIS, dominating-set and LDD-partition workloads. One
// function per experiment; every row is tagged "experiment": "E<k>" and
// printed as it is made. Writes BENCH_sessions.json, which CI diffs against
// bench/baselines/sessions.json (DESIGN.md §8); wall clocks and the ratios
// and delivery counters that follow them are recorded, not gated. Fixed
// seeds, so every run gives the same gated rows; main exits nonzero if any
// experiment fails its verdict or the report cannot be written.
//
// Set MNS_BENCH_SMOKE=1 to run the smallest instances (CI).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "bench_instances.hpp"
#include "bench_util.hpp"
#include "congest/dominating_set.hpp"
#include "congest/mincut.hpp"
#include "congest/mis.hpp"
#include "congest/mst.hpp"
#include "congest/solver_core.hpp"
#include "core/partition.hpp"
#include "gen/apex.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "graph/delta.hpp"
#include "io/report_json.hpp"
#include "serve/query_server.hpp"
#include "transport/loopback.hpp"

using namespace mns;
using bench::row;
using congest::RunReport;

namespace {

/// The failure policy of rows that end in their verdict: records it as
/// "verified", prints the row, and returns the verdict.
bool verdict(bench::JsonRow& r, bool ok) {
  bench::print(r.set("verified", ok ? "yes" : "no"));
  return ok;
}

congest::SolveOptions cold_options() {
  congest::SolveOptions opt;
  opt.use_cache = false;
  return opt;
}

// E16 (the Session thesis): multi-query traffic through one warm Session
// against cold per-call runs, on the four adversarial families.
//   - k-source SSSP: k (1+eps) queries from spread-out sources over
//     source-independent cells. The warm session builds each partition's
//     shortcut once and serves the other k-1 queries from the cache.
//   - An MST -> min-cut -> SSSP pipeline, which shares the singleton,
//     whole-network and revisited Boruvka fragment partitions.
//   - save -> restore (DESIGN.md §8): a warmed session is snapshotted and
//     restored, and the restored solves must be bit-identical to the
//     in-process warm ones and pay no construction.
// Warm must beat cold on deterministic counts: fewer total rounds (measured
// + charged, DESIGN.md §2) and fewer shortcut builds. Answers and measured
// rounds are bit-identical warm vs cold and checked against Dijkstra,
// Kruskal and Stoer-Wagner.

/// Accumulated cost of a traffic batch.
struct Totals {
  long long total_rounds = 0;  ///< measured + charged
  long long rounds = 0;        ///< measured
  long long charged = 0;
  long long messages = 0;
  long long misses = 0;
  long long hits = 0;
  double wall_ms = 0;
  void add(const RunReport& r) {
    total_rounds += r.total_rounds();
    rounds += r.rounds;
    charged += r.charged_construction_rounds;
    messages += r.messages;
    misses += r.cache_misses;
    hits += r.cache_hits;
    wall_ms += r.wall_ms;
  }
  /// Fewer total rounds and fewer builds than `cold`.
  [[nodiscard]] bool beats(const Totals& cold) const {
    return total_rounds < cold.total_rounds && misses < cold.misses;
  }
};

bench::JsonRow& set_warm_cold(bench::JsonRow& r, const Totals& warm,
                              const Totals& cold) {
  return r.set("warm_total_rounds", warm.total_rounds)
      .set("warm_charged", warm.charged)
      .set("warm_messages", warm.messages)
      .set("warm_builds", warm.misses).set("warm_hits", warm.hits)
      .set("warm_wall_ms", warm.wall_ms)
      .set("cold_total_rounds", cold.total_rounds)
      .set("cold_charged", cold.charged)
      .set("cold_messages", cold.messages)
      .set("cold_builds", cold.misses).set("cold_wall_ms", cold.wall_ms);
}

bool e16_ksource(bench::JsonReport& report, const bench::FamilyInstance& inst,
                 int k) {
  const VertexId n = inst.graph.num_vertices();
  congest::Session session = bench::make_session(inst.graph, inst.cert);
  bool ok = true;
  Totals warm, cold;
  for (int i = 0; i < k; ++i) {
    const VertexId src =
        static_cast<VertexId>(i) * n / static_cast<VertexId>(k);
    const congest::ApproxSssp query =
        bench::long_cells(congest::ApproxSssp{inst.weights, src}, n);
    const RunReport w = session.solve(query);
    congest::Session fresh = bench::make_session(inst.graph, inst.cert);
    const RunReport c = fresh.solve(query, cold_options());
    // Bit-identical distances AND measured rounds: the cache may only save
    // construction, never change the answer or the measured schedule.
    ok = ok &&
         bench::check_approx_sssp(inst.graph, inst.weights, src,
                                  w.sssp().dist).ok &&
         c.sssp().dist == w.sssp().dist && c.rounds == w.rounds;
    warm.add(w);
    cold.add(c);
  }
  return verdict(set_warm_cold(row(report, "E16").set("mode", "ksource-sssp")
                                   .set("family", inst.family).set("n", n)
                                   .set("k", k),
                               warm, cold),
                 ok && warm.beats(cold));
}

bool e16_pipeline(bench::JsonReport& report,
                  const bench::FamilyInstance& inst) {
  const Graph& g = inst.graph;
  const congest::WorkloadParams params =
      bench::workload_params(g, inst.weights);
  congest::Session session = bench::make_session(g, inst.cert);
  Totals warm, cold;
  std::vector<RunReport> w, c;
  for (const char* stage : {"mst", "mincut", "sssp.approx"}) {
    w.push_back(session.solve(stage, params));
    warm.add(w.back());
    congest::Session fresh = bench::make_session(g, inst.cert);
    c.push_back(fresh.solve(stage, params, cold_options()));
    cold.add(c.back());
  }
  std::vector<EdgeId> kruskal = congest::kruskal_mst(g, inst.weights);
  std::sort(kruskal.begin(), kruskal.end());
  const Weight cut = w[1].min_cut().value;
  bool ok = w[0].mst().edges == kruskal && c[0].mst().edges == kruskal &&
            cut == c[1].min_cut().value;
  if (g.num_vertices() <= 400) {  // Stoer-Wagner scale
    const Weight exact = congest::exact_min_cut(g, inst.weights);
    ok = ok && cut >= exact && cut <= 2 * exact + 1;
  }
  ok = ok && w[2].sssp().dist == c[2].sssp().dist &&
       bench::check_approx_sssp(g, inst.weights, 0, w[2].sssp().dist).ok;
  for (int i = 0; i < 3; ++i) ok = ok && w[i].rounds == c[i].rounds;
  return verdict(set_warm_cold(row(report, "E16").set("mode", "pipeline")
                                   .set("family", inst.family)
                                   .set("n", g.num_vertices()),
                               warm, cold),
                 ok && warm.beats(cold));
}

bool e16_restore(bench::JsonReport& report,
                 const bench::FamilyInstance& inst) {
  const congest::WorkloadParams params =
      bench::workload_params(inst.graph, inst.weights);
  const char* stages[] = {"mst", "sssp.approx"};
  const std::string path = "BENCH_sessions_restore_tmp.mns";
  congest::Session warm = bench::make_session(inst.graph, inst.cert);
  for (const char* stage : stages) (void)warm.solve(stage, params);  // prime
  warm.save(path, inst.weights);
  congest::Session restored = congest::Session::restore(path);
  std::remove(path.c_str());
  bool ok = true;
  for (const char* stage : stages) {
    const RunReport w = warm.solve(stage, params);
    const RunReport r = restored.solve(stage, params);
    ok &= verdict(row(report, "E16").set("mode", "restore")
                      .set("family", inst.family)
                      .set("n", inst.graph.num_vertices())
                      .set("workload", stage).set_run(r),
                  io::run_reports_identical(w, r) &&
                      r.charged_construction_rounds == 0 &&
                      r.cache_misses == 0);
  }
  return ok;
}

bool e16_session(bench::JsonReport& report, bool smoke) {
  bench::header("E16: session multi-query traffic (warm cache vs cold calls)");
  bool ok = true;
  for (const bench::FamilyInstance& inst : bench::family_instances(
           {16, 32, 48}, {256, 1024, 4096}, {16, 32, 48}, {4, 16, 32},
           smoke)) {
    ok &= e16_ksource(report, inst, /*k=*/6);
    ok &= e16_pipeline(report, inst);
    ok &= e16_restore(report, inst);
  }
  return ok;
}

// E17 (the vertex-parallel round engine, DESIGN.md §7): MST, then (1+eps)
// SSSP over source-independent cells, through one Session per thread width
// in {1, 2, 4, 8}. The verdict is parity, not speed: every width's
// RunReport (rounds, messages, charges, phases, cache economy and the full
// payload) must be bit-identical to the threads = 1 report, which is the
// "oracle" row. Speedup over threads = 1 is recorded, not asserted: it
// depends on the row's hardware_concurrency, and on one core every width
// measures ~1x.
bool e17_parallel_scaling(bench::JsonReport& report, bool smoke) {
  bench::header("E17: vertex-parallel round engine (bit-identical at every "
                "width, DESIGN.md §7)");
  bool ok = true;
  for (const bench::FamilyInstance& inst :
       smoke ? bench::family_instances({16}, {256}, {16}, {4})
             : bench::family_instances({48}, {4096}, {48}, {16})) {
    congest::ApproxSssp sssp{inst.weights, 0};
    sssp.wavefront_seeds = false;
    RunReport oracle[2];
    for (int threads : {1, 2, 4, 8}) {
      congest::SessionConfig cfg;
      cfg.tree = center_tree_factory(1);
      cfg.execution.threads = threads;
      congest::Session session(inst.graph, inst.cert, std::move(cfg));
      const RunReport runs[] = {session.solve(congest::Mst{inst.weights}),
                                session.solve(sssp)};
      for (int i = 0; i < 2; ++i) {
        const RunReport& r = runs[i];
        const char* parity = "oracle";
        if (threads == 1) {
          oracle[i] = r;
        } else {
          RunReport same_width = oracle[i];
          same_width.threads = r.threads;
          const bool same = io::run_reports_identical(r, same_width);
          ok &= same;
          parity = same ? "ok" : "violated";
        }
        bench::print(row(report, "E17").set("family", inst.family)
                         .set("n", inst.graph.num_vertices())
                         .set("workload", i == 0 ? "mst" : "sssp.approx")
                         .set_run(r)
                         .set("speedup", r.wall_ms > 0
                                             ? oracle[i].wall_ms / r.wall_ms
                                             : 1.0)
                         .set("parity", parity));
      }
    }
  }
  return ok;
}

// E19's and E20's networks: members of the four families sampled from one
// generator (not the adversarial builds of bench_instances.hpp), each with
// unique random weights.
struct SampledSizes {
  int grid_side;     ///< planar grid
  VertexId ktree_n;  ///< random 3-tree
  int apex_side;     ///< grid + one random apex
  int bag_side;      ///< triangulated-grid bags of a 2-clique-sum
  int bags;
};

std::vector<bench::FamilyInstance> sampled_families(unsigned seed,
                                                    unsigned weight_seed,
                                                    const SampledSizes& s) {
  Rng rng(seed);
  std::vector<bench::FamilyInstance> out;
  out.push_back({"planar", gen::grid_graph(s.grid_side, s.grid_side), {},
                 greedy_certificate()});
  gen::KTreeResult kt = gen::random_ktree(s.ktree_n, 3, rng);
  out.push_back({"treewidth", std::move(kt.graph), {},
                 treewidth_certificate(std::move(kt.decomposition))});
  gen::ApexResult ar = gen::add_apices(
      gen::grid_graph(s.apex_side, s.apex_side), 1, 0.1, rng);
  out.push_back({"apex", std::move(ar.graph), {}, apex_certificate(ar.apices)});
  const Graph bag = gen::triangulated_grid(s.bag_side, s.bag_side).graph();
  const std::vector<gen::BagInput> bags(
      static_cast<std::size_t>(s.bags),
      {bag, gen::default_glue_cliques(bag, 2)});
  gen::CliqueSumResult cs = gen::compose_clique_sum(bags, 2, 0.0, rng);
  out.push_back({"cliquesum", std::move(cs.graph), {},
                 cliquesum_certificate(cs.decomposition)});
  for (bench::FamilyInstance& inst : out) {
    Rng wrng(weight_seed);
    inst.weights = gen::unique_random_weights(inst.graph, wrng);
  }
  return out;
}

// E19 (serving, DESIGN.md §10): one warm SolverCore drained by QueryServer
// worker pools of width 1, 2 and 4, each worker driving its own
// SolveHandle. The whole open-loop arrival queue is materialized up front.
// Every concurrent RunReport must be bit-identical to the sequential
// steady-state reference ("parity") and no request may pay construction
// after the warm-up; throughput and latency are recorded, not gated.

/// The load mix: an MST, a min cut and k spread-out SSSP sources (the server
/// batches them onto one shared partition), repeated `repeat` times.
std::vector<serve::Request> load(const Graph& g, const std::vector<Weight>& w,
                                 int repeat) {
  std::vector<serve::Request> unit;
  serve::Request mst;
  mst.workload = "mst";
  mst.params.weights = w;
  unit.push_back(mst);
  serve::Request cut;
  cut.workload = "mincut";
  cut.params.weights = w;
  cut.params.num_trees = 4;
  unit.push_back(cut);
  const VertexId n = g.num_vertices();
  const VertexId stride = n / 8 + 1;
  for (VertexId src = 0; src < n; src += stride) {
    serve::Request sssp;
    sssp.workload = "sssp.approx";
    sssp.params.weights = w;
    sssp.params.source = src;
    unit.push_back(sssp);
  }
  std::vector<serve::Request> out;
  out.reserve(unit.size() * static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r)
    out.insert(out.end(), unit.begin(), unit.end());
  return out;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

bool e19_serve(bench::JsonReport& report, bool smoke) {
  bench::header("E19: concurrent serving over one shared SolverCore");
  bool ok = true;
  for (const bench::FamilyInstance& inst :
       sampled_families(71, 73, smoke ? SampledSizes{16, 256, 16, 4, 5}
                                      : SampledSizes{32, 1024, 32, 4, 16})) {
    const std::vector<serve::Request> batch =
        load(inst.graph, inst.weights, smoke ? 2 : 8);
    congest::CoreConfig cc;
    cc.tree = center_tree_factory(1);
    auto core = std::make_shared<const congest::SolverCore>(
        inst.graph, inst.cert, std::move(cc));
    // Warm-then-serve: the first sequential pass pays every construction
    // once; the second is the steady-state reference every width must
    // bit-match.
    serve::QueryServer warmer(core);
    (void)warmer.warm(batch);
    const std::vector<serve::Response> ref = warmer.warm(batch);

    for (int width : {1, 2, 4}) {
      serve::ServerConfig cfg;
      cfg.workers = width;
      serve::QueryServer srv(core, cfg);
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<serve::Response> got = srv.serve(batch);
      const double serve_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
      long long rounds = 0, messages = 0, hits = 0, builds = 0, charged = 0;
      std::vector<double> lat;
      bool parity = got.size() == ref.size();
      for (std::size_t i = 0; i < got.size(); ++i) {
        const RunReport& r = got[i].report;
        if (!got[i].ok() || !io::run_reports_identical(r, ref[i].report))
          parity = false;
        rounds += r.rounds;
        messages += r.messages;
        hits += r.cache_hits;
        builds += r.cache_misses;
        charged += r.charged_construction_rounds;
        lat.push_back(r.wall_ms);
      }
      ok &= parity && charged == 0;
      const double qps =
          serve_ms > 0.0
              ? static_cast<double>(got.size()) * 1000.0 / serve_ms
              : 0.0;
      bench::print(row(report, "E19").set("family", inst.family)
                       .set("n", inst.graph.num_vertices())
                       .set("workers", width)
                       .set("requests", got.size())
                       .set("rounds_total", rounds)
                       .set("messages_total", messages)
                       .set("cache_hits", hits)
                       .set("cache_misses", builds)
                       .set("charged_total", charged)
                       .set("parity", parity ? "yes" : "no")
                       .set("qps", qps)
                       .set("p50_wall_ms", percentile(lat, 0.50))
                       .set("p99_wall_ms", percentile(lat, 0.99)));
    }
  }
  return ok;
}

// E20 (transport, DESIGN.md §11): mst and sssp.approx over two lock-step
// ranks wired by acked UDP datagrams, clean and under seeded drop,
// duplicate and reorder faults. Both ranks' RunReports must be
// bit-identical to the single-process reference ("parity"). The canonical
// traffic counters (rounds_exchanged, wire_records) are gated; the delivery
// counters depend on timing and faults and are recorded only.

struct DistResult {
  std::vector<RunReport> reports;  ///< per rank
  transport::TransportStats total;  ///< rounds_exchanged: max; others: sum
  double wall_ms = 0.0;
  std::string error;
};

DistResult distributed_solve(const bench::FamilyInstance& inst,
                             const std::string& workload,
                             const congest::WorkloadParams& params, int ranks,
                             const transport::FaultConfig& faults) {
  const auto rank_count = static_cast<std::size_t>(ranks);
  DistResult out;
  auto cluster = transport::make_loopback_cluster(
      inst.graph, ranks, transport::SocketTransportConfig{}, faults);
  out.reports.resize(rank_count);
  std::vector<std::string> errors(rank_count);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < rank_count; ++r) {
    threads.emplace_back([&, r] {
      try {
        congest::Session session = bench::make_session(inst.graph, inst.cert);
        session.set_transport(cluster[r].get());
        out.reports[r] = session.solve(workload, params);
        session.set_transport(nullptr);
        cluster[r]->shutdown();
      } catch (const std::exception& e) {
        errors[r] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  for (std::size_t r = 0; r < rank_count; ++r) {
    if (!errors[r].empty())
      out.error = "rank " + std::to_string(r) + ": " + errors[r];
    const transport::TransportStats& st = cluster[r]->stats();
    out.total.rounds_exchanged =
        std::max(out.total.rounds_exchanged, st.rounds_exchanged);
    out.total.wire_records += st.wire_records;
    out.total.datagrams_sent += st.datagrams_sent;
    out.total.datagrams_received += st.datagrams_received;
    out.total.acks_sent += st.acks_sent;
    out.total.retransmits += st.retransmits;
    out.total.faults_dropped += st.faults_dropped;
    out.total.faults_duplicated += st.faults_duplicated;
    out.total.faults_held += st.faults_held;
  }
  return out;
}

bool e20_transport(bench::JsonReport& report, bool smoke) {
  bench::header("E20: socket transport parity (2 lock-step ranks over UDP)");
  constexpr int kRanks = 2;
  transport::FaultConfig faulted;
  faulted.seed = 99;
  faulted.drop_rate = 0.15;
  faulted.dup_rate = 0.05;
  faulted.reorder_rate = 0.05;
  bool ok = true;
  for (const bench::FamilyInstance& inst :
       sampled_families(79, 83, smoke ? SampledSizes{8, 96, 7, 3, 3}
                                      : SampledSizes{24, 512, 20, 3, 10})) {
    congest::WorkloadParams params;
    params.weights = inst.weights;
    for (const char* workload : {"mst", "sssp.approx"}) {
      congest::Session ref_session =
          bench::make_session(inst.graph, inst.cert);
      const RunReport ref = ref_session.solve(workload, params);
      for (const bool with_faults : {false, true}) {
        const char* mode = with_faults ? "faulted" : "clean";
        const DistResult dist =
            distributed_solve(inst, workload, params, kRanks,
                              with_faults ? faulted : transport::FaultConfig{});
        bool parity = dist.error.empty();
        if (!parity)
          std::fprintf(stderr, "E20 %s/%s/%s: %s\n", inst.family.c_str(),
                       workload, mode, dist.error.c_str());
        for (const RunReport& r : dist.reports)
          parity = parity && io::run_reports_identical(r, ref);
        ok &= parity;
        const transport::TransportStats& t = dist.total;
        bench::print(row(report, "E20").set("family", inst.family)
                         .set("n", inst.graph.num_vertices())
                         .set("workload", workload)
                         .set("mode", mode)
                         .set("ranks", kRanks)
                         .set("rounds", ref.rounds)
                         .set("messages", ref.messages)
                         .set("rounds_exchanged", t.rounds_exchanged)
                         .set("wire_records", t.wire_records)
                         .set("parity", parity ? "yes" : "no")
                         .set("wall_ms", dist.wall_ms)
                         .set("datagrams_sent", t.datagrams_sent)
                         .set("datagrams_received", t.datagrams_received)
                         .set("acks_sent", t.acks_sent)
                         .set("retransmits", t.retransmits)
                         .set("faults_dropped", t.faults_dropped)
                         .set("faults_duplicated", t.faults_duplicated)
                         .set("faults_held", t.faults_held));
      }
    }
  }
  return ok;
}

// E21 (incremental updates, DESIGN.md §12): the paper's "pay for structure
// once" must survive churn. Each family runs one warm Session through a
// fixed update schedule: heavy-edge re-weighting, a light-weight swap, an
// edge remove/re-insert toggle and a vertex add/remove episode. After every
// update it solves the same workloads on the warm session (update()) and on
// a Session rebuilt over the post-update graph. Verified per update:
//   - payloads equal the rebuild's (MST edges, weight and fragments, exact
//     SSSP distances, aggregate minima): maintenance changes cost, never
//     answers;
//   - a probe partition away from the edits stays a cache hit with no
//     construction charge across structural edits (its entry migrates,
//     entries_kept >= 1).
// Over the schedule the warm session must pay strictly fewer builds and
// charged construction rounds than the rebuilds. The smoke run shrinks the
// instances, never the schedule, so every update path stays gated.

struct ChurnInstance {
  bench::FamilyInstance net;
  std::vector<PartId> probe_part_of;  ///< partial cover, away from the edits
  VertexId toggle_u = kInvalidVertex;  ///< the remove/re-insert edge
  VertexId toggle_v = kInvalidVertex;
};

/// Row-0 arcs of a grid-shaped id range: connected within the row, covering
/// nothing the update schedule touches (edits live in the LAST row / bag).
std::vector<PartId> row0_probe(VertexId n, VertexId row_len) {
  const Partition p = ring_sectors(n, 0, row_len, 2);
  return std::vector<PartId>(p.part_of_all().begin(), p.part_of_all().end());
}

ChurnInstance churn_instance(const std::string& family, int size) {
  ChurnInstance c;
  if (family == "apex") {
    // The paper's grid + apex on every other node (§1), not the satellite
    // apex of bench::family_instance.
    bench::GridApexInstance gi = bench::grid_apex_instance(
        size, size, static_cast<unsigned>(100 + size));
    c.net = {family, std::move(gi.graph), std::move(gi.weights),
             apex_certificate(gi.apices)};
  } else {
    c.net = bench::family_instance(family, size);
  }
  const VertexId n = c.net.graph.num_vertices();
  if (family == "planar" || family == "apex") {
    c.probe_part_of = row0_probe(n, size);
    c.toggle_u = static_cast<VertexId>((size - 1) * size + size - 2);
    c.toggle_v = c.toggle_u + 1;  // last-row horizontal edge
    return c;
  }
  c.probe_part_of = row0_probe(n, 16);
  if (family == "treewidth") {
    c.toggle_u = size - 3;  // band edge (gap 2): heavy, in every bag with n-1
    c.toggle_v = size - 1;
    return c;
  }
  // cliquesum: toggle the heaviest in-bag edge of the LAST bag (never bag 0,
  // where the probe lives); its endpoints survive the edge-only updates.
  const CliqueSumDecomposition& d =
      std::get<CliqueSumCertificate>(c.net.cert).decomposition;
  EdgeId pick = kInvalidEdge;
  for (const EdgeId e : d.bag_edges(d.num_bags() - 1))
    if (pick == kInvalidEdge || c.net.weights[e] > c.net.weights[pick])
      pick = e;
  c.toggle_u = c.net.graph.edge(pick).u;
  c.toggle_v = c.net.graph.edge(pick).v;
  return c;
}

std::vector<congest::AggValue> ramp_values(VertexId n) {
  std::vector<congest::AggValue> v(static_cast<std::size_t>(n));
  for (VertexId i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = {(7 * i) % 101, i};
  return v;
}

/// Carries the probe's part map across a structural update, exactly as the
/// core migrated its cached entry (same maps, so the solve still hits).
std::vector<PartId> remap_probe(const std::vector<PartId>& part_of,
                                const congest::UpdateStats& stats,
                                VertexId new_n) {
  std::vector<PartId> out(static_cast<std::size_t>(new_n), kNoPart);
  for (std::size_t v = 0; v < part_of.size(); ++v) {
    const VertexId nv = stats.vertex_map[v];
    if (nv != kInvalidVertex) out[static_cast<std::size_t>(nv)] = part_of[v];
  }
  return out;
}

struct MstSummary {
  std::vector<EdgeId> sorted_edges;
  std::vector<PartId> fragment_of;
  Weight total = 0;
  bool operator==(const MstSummary&) const = default;
};

MstSummary summarize_mst(const RunReport& r, const std::vector<Weight>& w) {
  MstSummary s;
  s.sorted_edges = r.mst().edges;
  std::sort(s.sorted_edges.begin(), s.sorted_edges.end());
  s.fragment_of = r.mst().fragment_of;
  for (const EdgeId e : s.sorted_edges)
    s.total += w[static_cast<std::size_t>(e)];
  return s;
}

/// The schedule's u-th update batch against the warm session's current
/// graph and weights; `churn_vertex` is the vertex update 4 added.
UpdateBatch churn_update(int u, const congest::Session& warm,
                         const std::vector<Weight>& weights,
                         const ChurnInstance& inst, VertexId churn_vertex) {
  UpdateBatch batch;
  if (u == 0 || u == 3) {
    // Re-weight the 4 heaviest edges to fresh, larger, distinct values:
    // every comparison Boruvka/SSSP ever makes is unchanged, so the warm
    // session's cached fragment partitions stay exact hits.
    std::vector<EdgeId> ids(weights.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
      return weights[static_cast<std::size_t>(a)] >
             weights[static_cast<std::size_t>(b)];
    });
    const Weight top = weights[static_cast<std::size_t>(ids[0])];
    for (int i = 0; i < 4 && i < static_cast<int>(ids.size()); ++i)
      batch.weight_changes.push_back({ids[static_cast<std::size_t>(i)],
                                      top + 1 + i});
  } else if (u == 1) {
    // Swap the two lightest weights: an honest payload-changing edit (the
    // distance profile moves; fragment evolution may too).
    EdgeId lo = 0, lo2 = 1;
    if (weights[1] < weights[0]) std::swap(lo, lo2);
    for (EdgeId e = 2; e < static_cast<EdgeId>(weights.size()); ++e) {
      if (weights[static_cast<std::size_t>(e)] <
          weights[static_cast<std::size_t>(lo)]) {
        lo2 = lo;
        lo = e;
      } else if (weights[static_cast<std::size_t>(e)] <
                 weights[static_cast<std::size_t>(lo2)]) {
        lo2 = e;
      }
    }
    batch.weight_changes.push_back(
        {lo, weights[static_cast<std::size_t>(lo2)]});
    batch.weight_changes.push_back(
        {lo2, weights[static_cast<std::size_t>(lo)]});
  } else if (u == 2) {
    batch.remove_edges.push_back(
        warm.graph().find_edge(inst.toggle_u, inst.toggle_v));
  } else if (u == 4) {
    // Re-insert the toggled edge AND attach one new vertex to its
    // endpoints — a compound structural batch.
    const Weight heavy =
        *std::max_element(weights.begin(), weights.end()) + 10;
    const VertexId ext = warm.graph().num_vertices();  // the new vertex
    batch.insert_edges.push_back({inst.toggle_u, inst.toggle_v, heavy});
    batch.insert_edges.push_back({inst.toggle_u, ext, heavy + 1});
    batch.insert_edges.push_back({inst.toggle_v, ext, heavy + 2});
    batch.add_vertices = 1;
  } else {  // u == 5
    batch.remove_vertices.push_back(churn_vertex);
  }
  return batch;
}

bool e21_family(bench::JsonReport& report, const ChurnInstance& inst) {
  constexpr int kUpdates = 6;
  congest::Session warm = bench::make_session(inst.net.graph, inst.net.cert);
  std::vector<Weight> weights = inst.net.weights;
  std::vector<PartId> probe = inst.probe_part_of;

  // Warm-up (excluded from the tallies): pay construction once, as a
  // long-lived session already has by the time churn arrives.
  (void)warm.solve(congest::Mst{weights});
  (void)warm.solve(congest::Aggregate{
      Partition(probe), ramp_values(warm.graph().num_vertices())});

  Totals warm_t, rebuild_t;
  long long kept_total = 0, invalidated_total = 0, subpaths_total = 0;
  bool ok = true;
  VertexId churn_vertex = kInvalidVertex;  // the u=4 addition, removed at u=5

  for (int u = 0; u < kUpdates; ++u) {
    const UpdateBatch batch =
        churn_update(u, warm, weights, inst, churn_vertex);
    const congest::UpdateStats stats = warm.update(batch, &weights);
    if (batch.structural()) {
      kept_total += static_cast<long long>(stats.entries_kept);
      invalidated_total += static_cast<long long>(stats.entries_invalidated);
      subpaths_total += static_cast<long long>(stats.subpaths_rebuilt);
      // The probe lives away from every edit: its entry must migrate.
      ok = ok && stats.entries_kept >= 1;
      probe = remap_probe(probe, stats, warm.graph().num_vertices());
    }
    if (u == 4) churn_vertex = warm.graph().num_vertices() - 1;

    // The rebuild straw man: a cold Session over the post-update graph with
    // the post-update certificate — what churn costs WITHOUT update().
    congest::Session rebuild =
        bench::make_session(warm.graph(), warm.certificate());
    const std::vector<congest::AggValue> values =
        ramp_values(warm.graph().num_vertices());
    const RunReport w_mst = warm.solve(congest::Mst{weights});
    const RunReport r_mst = rebuild.solve(congest::Mst{weights});
    const RunReport w_agg =
        warm.solve(congest::Aggregate{Partition(probe), values});
    const RunReport r_agg =
        rebuild.solve(congest::Aggregate{Partition(probe), values});
    const RunReport w_sp = warm.solve(congest::ExactSssp{weights, 0});
    const RunReport r_sp = rebuild.solve(congest::ExactSssp{weights, 0});

    // Bit-identical answers: cost may differ, results never.
    const bool identical =
        summarize_mst(w_mst, weights) == summarize_mst(r_mst, weights) &&
        w_sp.sssp().dist == r_sp.sssp().dist &&
        w_agg.aggregate().min_of_part == r_agg.aggregate().min_of_part;
    // The surviving probe entry serves for free, even right after a
    // structural edit (u == 0: the whole warm MST is hits too).
    const bool probe_free = w_agg.cache_hits == 1 &&
                            w_agg.charged_construction_rounds == 0;
    const bool weight_only_free =
        u != 0 || (w_mst.charged_construction_rounds == 0 &&
                   w_mst.cache_misses == 0);
    ok = ok && identical && probe_free && weight_only_free;
    for (const RunReport* r : {&w_mst, &w_agg, &w_sp}) warm_t.add(*r);
    for (const RunReport* r : {&r_mst, &r_agg, &r_sp}) rebuild_t.add(*r);
  }
  // The point of the experiment: churn without re-paying construction.
  ok = ok && warm_t.misses < rebuild_t.misses &&
       warm_t.charged < rebuild_t.charged && kept_total > 0;
  return verdict(row(report, "E21").set("family", inst.net.family)
                     .set("n", warm.graph().num_vertices())
                     .set("updates", kUpdates)
                     .set("warm_builds", warm_t.misses)
                     .set("rebuild_builds", rebuild_t.misses)
                     .set("warm_charged_rounds", warm_t.charged)
                     .set("rebuild_charged_rounds", rebuild_t.charged)
                     .set("warm_rounds", warm_t.rounds)
                     .set("rebuild_rounds", rebuild_t.rounds)
                     .set("warm_messages", warm_t.messages)
                     .set("rebuild_messages", rebuild_t.messages)
                     .set("entries_kept", kept_total)
                     .set("entries_invalidated", invalidated_total)
                     .set("subpaths_rebuilt", subpaths_total),
                 ok);
}

bool e21_churn(bench::JsonReport& report, bool smoke) {
  bench::header("E21: incremental updates vs rebuild under churn");
  bool ok = true;
  for (const auto& [family, smoke_size, full_size] :
       {std::tuple{"planar", 8, 16}, {"treewidth", 96, 192}, {"apex", 8, 12},
        {"cliquesum", 2, 3}})
    ok &= e21_family(report,
                     churn_instance(family, smoke ? smoke_size : full_size));
  return ok;
}

// E22 (the workload catalogue): Luby MIS, span-greedy dominating set and LDD
// as a second partition source, on the four adversarial families.
//   - mis: a maximal independent set (oracle-checked), reported beside the
//     sequential greedy's size.
//   - domset: a dominating set (oracle-checked) within 3x of the sequential
//     greedy, the bounded-degeneracy contract of DESIGN.md §13; |D| is the
//     value the network convergecast to the root.
//   - ldd-source: with SolveOptions::partition = kLdd, every partition of
//     mst and sssp.approx projects from ONE cached LDD shortcut: the cold
//     solve pays at most one build, the repeat is all hits with no
//     construction charge, and the answers equal the default source's.

VertexId popcount(const std::vector<char>& member) {
  VertexId c = 0;
  for (char m : member) c += (m != 0) ? 1 : 0;
  return c;
}

bool e22_vertex_set(bench::JsonReport& report,
                    const bench::FamilyInstance& inst, const char* workload) {
  const Graph& g = inst.graph;
  congest::Session session = bench::make_session(g, inst.cert);
  const RunReport r =
      session.solve(workload, bench::workload_params(g, inst.weights));
  const bool mis = std::string(workload) == "mis";
  const std::vector<char>& member = mis ? r.mis().in_mis : r.domset().in_set;
  const VertexId size = mis ? r.mis().size : r.domset().size;
  const VertexId greedy = popcount(mis ? congest::greedy_mis(g)
                                       : congest::greedy_dominating_set(g));
  const std::string problem =
      mis ? congest::verify_maximal_independent_set(g, member)
          : congest::verify_dominating_set(g, member);
  const bool ok = problem.empty() && size == popcount(member) &&
                  (mis ? size > 0 && greedy > 0 : size <= 3 * greedy);
  return verdict(row(report, "E22").set("mode", workload)
                     .set("family", inst.family).set("n", g.num_vertices())
                     .set("size", size).set("greedy_size", greedy).set_run(r),
                 ok);
}

bool e22_ldd_source(bench::JsonReport& report,
                    const bench::FamilyInstance& inst) {
  const congest::WorkloadParams params =
      bench::workload_params(inst.graph, inst.weights);
  congest::SolveOptions ldd;
  ldd.partition = congest::PartitionSource::kLdd;
  congest::Session ref_session = bench::make_session(inst.graph, inst.cert);
  congest::Session session = bench::make_session(inst.graph, inst.cert);
  bool ok = true;
  for (const char* stage : {"mst", "sssp.approx"}) {
    const RunReport ref = ref_session.solve(stage, params);
    const RunReport cold = session.solve(stage, params, ldd);
    const RunReport warm = session.solve(stage, params, ldd);
    const bool same_answer = std::string(stage) == "mst"
                                 ? warm.mst().edges == ref.mst().edges
                                 : warm.sssp().dist == ref.sssp().dist;
    ok &= verdict(row(report, "E22").set("mode", "ldd-source")
                      .set("family", inst.family)
                      .set("n", inst.graph.num_vertices())
                      .set("workload", stage)
                      .set("cold_charged", cold.charged_construction_rounds)
                      .set("cold_builds", cold.cache_misses)
                      .set("cold_rounds", cold.rounds)
                      .set("cold_messages", cold.messages)
                      .set("warm_charged", warm.charged_construction_rounds)
                      .set("warm_hits", warm.cache_hits)
                      .set("warm_rounds", warm.rounds),
                  cold.cache_misses <= 1 &&
                      warm.charged_construction_rounds == 0 &&
                      warm.cache_misses == 0 && warm.cache_hits > 0 &&
                      warm.rounds == cold.rounds && same_answer);
  }
  return ok;
}

bool e22_workloads(bench::JsonReport& report, bool smoke) {
  bench::header(
      "E22: workload catalogue (mis / domset / ldd partition source)");
  bool ok = true;
  for (const bench::FamilyInstance& inst : bench::family_instances(
           {12, 24}, {128, 512}, {12, 24}, {4, 12}, smoke)) {
    ok &= e22_vertex_set(report, inst, "mis");
    ok &= e22_vertex_set(report, inst, "domset");
    ok &= e22_ldd_source(report, inst);
  }
  return ok;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("MNS_BENCH_SMOKE") != nullptr;
  bench::JsonReport report("sessions");
  bool ok = true;
  for (const auto& [id, experiment] :
       {std::pair{"E16", &e16_session}, {"E17", &e17_parallel_scaling},
        {"E19", &e19_serve}, {"E20", &e20_transport}, {"E21", &e21_churn},
        {"E22", &e22_workloads}}) {
    if (experiment(report, smoke)) continue;
    std::fprintf(stderr, "bench_sessions: %s failed its verdict\n", id);
    ok = false;
  }
  // A report that cannot be written is a failed run: CI diffs the file.
  ok &= report.write();
  return ok ? 0 : 1;
}
