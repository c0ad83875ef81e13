// E13 (Theorem 1's mechanism): measured aggregation rounds track shortcut
// quality q = b*d + c. Same network and parts, different shortcut
// constructions — the framework's promise is that q predicts rounds. Each
// variant is one certificate swapped into a shared congest::Session
// (set_certificate invalidates the cache, analyze() measures the build and
// seeds it, solve(Aggregate) measures the rounds).
#include <cstdio>

#include "bench_util.hpp"
#include "congest/distributed_shortcut.hpp"
#include "congest/session.hpp"
#include "gen/basic.hpp"
#include "gen/planar.hpp"

using namespace mns;

namespace {

std::vector<congest::AggValue> hashed_values(VertexId n) {
  std::vector<congest::AggValue> init(n);
  for (VertexId v = 0; v < n; ++v)
    init[v] = {static_cast<Weight>((v * 2654435761u) % 100000), v};
  return init;
}

void record_variant(bench::JsonReport& report, const char* name, VertexId n,
                    const ShortcutMetrics& m, const congest::RunReport& res) {
  std::printf("%-26s  q=%8lld (b=%4d c=%5d)  measured rounds=%6lld  "
              "msgs=%9lld\n",
              name, m.quality, m.block, m.congestion, res.rounds,
              res.messages);
  report.row().set("method", name).set("n", n).set_metrics(m).set_run(res);
}

void run_certificate(bench::JsonReport& report, const char* name,
                     congest::Session& session, const Partition& parts,
                     StructuralCertificate cert) {
  session.set_certificate(std::move(cert));
  BuildResult r = session.analyze(parts);
  congest::RunReport res = session.solve(
      congest::Aggregate{parts, hashed_values(session.graph().num_vertices())});
  record_variant(report, name, session.graph().num_vertices(), r.metrics, res);
}

void run_empty(bench::JsonReport& report, congest::Session& session,
               const Partition& parts) {
  const Shortcut none = empty_shortcut(parts);
  ShortcutMetrics m =
      measure_shortcut(session.graph(), session.tree(), parts, none);
  congest::SolveOptions flooding;
  flooding.use_shortcuts = false;
  congest::RunReport res = session.solve(
      congest::Aggregate{parts, hashed_values(session.graph().num_vertices())},
      flooding);
  record_variant(report, "none (flooding)", session.graph().num_vertices(), m,
                 res);
}

congest::Session root0_session(const Graph& g) {
  congest::SessionConfig cfg;
  cfg.tree = [](const Graph& gg) {
    return RootedTree::from_bfs(bfs(gg, 0), 0);
  };
  return congest::Session(g, greedy_certificate(), std::move(cfg));
}

}  // namespace

int main() {
  bench::header("E13: quality -> rounds correlation (Theorem 1 mechanism)");
  bench::JsonReport report("aggregation");

  std::printf("-- wheel, 8 ring sectors (apex pathology) --\n");
  {
    const VertexId n = 4002;
    Graph g = gen::wheel(n);
    Partition parts = ring_sectors(n, 1, n - 1, 8);
    congest::Session session = root0_session(g);
    run_empty(report, session, parts);
    run_certificate(report, "ancestor climb h=4", session, parts,
                    ancestor_certificate(4));
    run_certificate(report, "steiner", session, parts, steiner_certificate());
    run_certificate(report, "greedy [HIZ16a]", session, parts,
                    greedy_certificate());
    run_certificate(report, "apex-aware (Lemma 9)", session, parts,
                    apex_certificate({0}));
  }

  std::printf("\n-- 48x48 grid, serpentine zones --\n");
  {
    const int s = 48;
    EmbeddedGraph eg = gen::grid(s, s);
    Partition parts = grid_serpentines(s, s, 6);
    congest::Session session = bench::make_session(eg.graph(),
                                                   greedy_certificate());
    run_empty(report, session, parts);
    run_certificate(report, "ancestor climb h=8", session, parts,
                    ancestor_certificate(8));
    run_certificate(report, "steiner", session, parts, steiner_certificate());
    run_certificate(report, "greedy [HIZ16a]", session, parts,
                    greedy_certificate());
  }

  std::printf("\n-- fully distributed: construction itself simulated --\n");
  {
    const VertexId n = 4002;
    Graph g = gen::wheel(n);
    RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
    Partition parts = ring_sectors(n, 1, n - 1, 8);
    congest::Simulator sim(g);
    congest::DistributedShortcutResult built =
        congest::distributed_capped_greedy(sim, t, parts, 8);
    long long construction = sim.rounds();
    congest::PartwiseAggregator agg(g, parts, built.shortcut);
    std::vector<congest::AggValue> init = hashed_values(n);
    auto res = agg.aggregate_min(sim, init);
    ShortcutMetrics m = measure_shortcut(g, t, parts, built.shortcut);
    std::printf("%-26s  q=%8lld (b=%4d c=%5d)  construction=%lld rounds, "
                "aggregation=%lld rounds\n",
                "distributed greedy cap=8", m.quality, m.block, m.congestion,
                construction, res.rounds);
    report.row().set("method", "distributed greedy cap=8")
        .set("n", g.num_vertices()).set_metrics(m)
        .set("construction_rounds", construction)
        .set("rounds", res.rounds).set("messages", sim.messages_sent());
  }
  return report.write() ? 0 : 1;
}
