// Micro-benchmarks (google-benchmark): construction and measurement
// throughput of the library's hot paths — generator, BFS tree, the shortcut
// constructors (with churn's two construction shapes), metrics, folding, and
// part-wise aggregation (its table construction alone, and whole
// aggregate_min runs, whose items_per_second counts messages).
#include <benchmark/benchmark.h>

#include "bench_instances.hpp"
#include "congest/aggregation.hpp"
#include "core/shortcut_engine.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"

namespace {

using namespace mns;

const ShortcutEngine& engine() { return ShortcutEngine::global(); }

void BM_RandomMaximalPlanar(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(gen::random_maximal_planar(n, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RandomMaximalPlanar)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 15);

void BM_BfsTree(benchmark::State& state) {
  Rng rng(7);
  EmbeddedGraph eg = gen::random_maximal_planar(
      static_cast<VertexId>(state.range(0)), rng);
  for (auto _ : state) {
    BfsResult r = bfs(eg.graph(), 0);
    benchmark::DoNotOptimize(RootedTree::from_bfs(r, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BfsTree)->Arg(1 << 12)->Arg(1 << 15);

void BM_GreedyShortcut(benchmark::State& state) {
  Rng rng(7);
  EmbeddedGraph eg = gen::random_maximal_planar(
      static_cast<VertexId>(state.range(0)), rng);
  const Graph& g = eg.graph();
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Partition parts = voronoi_partition(g, 32, rng);
  StructuralCertificate cert = greedy_certificate();
  // build_shortcut: construction + validation only (a cache miss's cost);
  // measurement cost is isolated in BM_MeasureShortcut.
  for (auto _ : state)
    benchmark::DoNotOptimize(engine().build_shortcut(g, t, parts, cert));
}
BENCHMARK(BM_GreedyShortcut)->Arg(1 << 12)->Arg(1 << 15);

// Churn's Borůvka shape: the side x side grid in ~side^2/4 Voronoi parts,
// rooted where a session roots it. Most rungs of the cap ladder run here.
void BM_GreedyShortcutManyParts(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  Graph g = gen::grid(side, side).graph();
  RootedTree t = center_tree_factory()(g);
  Rng rng(7);
  Partition parts = voronoi_partition(g, side * side / 4, rng);
  StructuralCertificate cert = greedy_certificate();
  for (auto _ : state)
    benchmark::DoNotOptimize(engine().build_shortcut(g, t, parts, cert));
}
BENCHMARK(BM_GreedyShortcutManyParts)->Arg(64);

// Churn's chain: the apexed clique-sum chain of `bags` 16x16 bags through
// the Theorem 6 pipeline (clique-sum + Lemma 9 apex oracle), in n/4
// Voronoi parts.
void BM_ApexChainShortcut(benchmark::State& state) {
  Rng rng(7);
  bench::ApexChain chain =
      bench::apexed_chain_cliquesum(static_cast<int>(state.range(0)), rng);
  const Graph& g = chain.graph;
  RootedTree t = center_tree_factory()(g);
  Partition parts = voronoi_partition(g, g.num_vertices() / 4, rng);
  StructuralCertificate cert = bench::apex_chain_certificate(chain);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine().build_shortcut(g, t, parts, cert));
}
BENCHMARK(BM_ApexChainShortcut)->Arg(16);

void BM_SteinerShortcut(benchmark::State& state) {
  Rng rng(7);
  EmbeddedGraph eg = gen::random_maximal_planar(
      static_cast<VertexId>(state.range(0)), rng);
  const Graph& g = eg.graph();
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Partition parts = voronoi_partition(g, 32, rng);
  StructuralCertificate cert = steiner_certificate();
  for (auto _ : state)
    benchmark::DoNotOptimize(engine().build_shortcut(g, t, parts, cert));
}
BENCHMARK(BM_SteinerShortcut)->Arg(1 << 12)->Arg(1 << 15);

void BM_TreewidthShortcut(benchmark::State& state) {
  Rng rng(7);
  gen::KTreeResult kt =
      gen::random_ktree(static_cast<VertexId>(state.range(0)), 3, rng);
  RootedTree t = RootedTree::from_bfs(bfs(kt.graph, 0), 0);
  Partition parts = voronoi_partition(kt.graph, 32, rng);
  StructuralCertificate cert = treewidth_certificate(kt.decomposition);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine().build_shortcut(kt.graph, t, parts, cert));
}
BENCHMARK(BM_TreewidthShortcut)->Arg(1 << 11)->Arg(1 << 13);

void BM_MeasureShortcut(benchmark::State& state) {
  Rng rng(7);
  EmbeddedGraph eg = gen::random_maximal_planar(
      static_cast<VertexId>(state.range(0)), rng);
  const Graph& g = eg.graph();
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Partition parts = voronoi_partition(g, 32, rng);
  Shortcut sc = engine().build_shortcut(g, t, parts, greedy_certificate());
  for (auto _ : state)
    benchmark::DoNotOptimize(measure_shortcut(g, t, parts, sc));
}
BENCHMARK(BM_MeasureShortcut)->Arg(1 << 12)->Arg(1 << 15);

// Simulator round-turnover throughput: every directed edge carries a message
// (the all-to-all load pattern of flooding algorithms).
void BM_SimulatorFinishRoundDense(benchmark::State& state) {
  using namespace mns::congest;
  Rng rng(7);
  EmbeddedGraph eg = gen::random_maximal_planar(
      static_cast<VertexId>(state.range(0)), rng);
  const Graph& g = eg.graph();
  Simulator sim(g);
  for (auto _ : state) {
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      for (EdgeId e : g.incident_edges(v)) sim.send(v, e, Message{0, 0, 1});
    sim.finish_round();
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 2);
}
BENCHMARK(BM_SimulatorFinishRoundDense)->Arg(1 << 12)->Arg(1 << 15);

// Sparse frontier: a handful of active nodes on a large graph — the load
// pattern of BFS/convergecast tails, where per-round O(n) bookkeeping
// dominates the actual message work.
void BM_SimulatorFinishRoundSparse(benchmark::State& state) {
  using namespace mns::congest;
  Rng rng(7);
  EmbeddedGraph eg = gen::random_maximal_planar(
      static_cast<VertexId>(state.range(0)), rng);
  const Graph& g = eg.graph();
  Simulator sim(g);
  const VertexId stride = g.num_vertices() / 64;
  for (auto _ : state) {
    for (VertexId i = 0; i < 64; ++i) {
      VertexId v = i * stride;
      sim.send(v, g.incident_edges(v)[0], Message{0, 0, 1});
    }
    sim.finish_round();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SimulatorFinishRoundSparse)->Arg(1 << 15);

// finish_round's deterministic shard merge at staging widths 1/4/8: every
// directed edge is staged into its vertex's contiguous shard block (the
// exact load the vertex engine produces), so the measured cost is the
// packed-SoA merge + CSR scatter itself, not pool wake-ups or send work.
void BM_SimulatorFinishRoundMerge(benchmark::State& state) {
  using namespace mns::congest;
  Rng rng(7);
  EmbeddedGraph eg = gen::random_maximal_planar(
      static_cast<VertexId>(state.range(0)), rng);
  const Graph& g = eg.graph();
  const int width = static_cast<int>(state.range(1));
  Simulator sim(g, ExecutionPolicy{width});
  const VertexId n = g.num_vertices();
  for (auto _ : state) {
    for (int s = 0; s < width; ++s) {
      const VertexId begin = static_cast<VertexId>(
          static_cast<long long>(n) * s / width);
      const VertexId end = static_cast<VertexId>(
          static_cast<long long>(n) * (s + 1) / width);
      for (VertexId v = begin; v < end; ++v)
        for (EdgeId e : g.incident_edges(v))
          sim.stage_send(s, v, e, Message{0, 0, 1});
    }
    sim.finish_round();
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 2);
}
BENCHMARK(BM_SimulatorFinishRoundMerge)
    ->Args({1 << 15, 1})
    ->Args({1 << 15, 4})
    ->Args({1 << 15, 8});

// Repeated aggregate_min runs over one aggregator (its workspace is reused,
// as in sssp.approx's jumps and mincut's per-tree pass); items are messages.
void run_aggregations(benchmark::State& state, const Graph& g,
                      const Partition& parts, const Shortcut& sc) {
  using namespace mns::congest;
  PartwiseAggregator agg(g, parts, sc);
  std::vector<AggValue> init(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    init[static_cast<std::size_t>(v)] = {v, v};
  long long messages = 0;
  for (auto _ : state) {
    Simulator sim(g);
    benchmark::DoNotOptimize(agg.aggregate_min(sim, init));
    messages += sim.messages_sent();
  }
  state.SetItemsProcessed(messages);
}

// A hub of degree n-1 next to a ring of degree-3 vertices, split into 8
// long ring sectors that only the apex shortcut makes short.
void BM_AggregationWheel(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  GraphBuilder b(n);
  for (VertexId v = 1; v < n; ++v) {
    b.add_edge(0, v);
    b.add_edge(v, v == n - 1 ? 1 : v + 1);
  }
  Graph g = b.build();
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Partition parts = ring_sectors(n, 1, n - 1, 8);
  Shortcut sc = engine().build_shortcut(g, t, parts, apex_certificate({0}));
  run_aggregations(state, g, parts, sc);
}
BENCHMARK(BM_AggregationWheel)->Arg(1 << 10)->Arg(1 << 12);

// The degree-4 counterpart: a side x side grid in side Voronoi cells over
// its greedy shortcut.
struct GridAggregationCase {
  Graph g;
  Partition parts;
  Shortcut sc;
};
GridAggregationCase grid_aggregation_case(int side) {
  Graph g = gen::grid(side, side).graph();
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Rng rng(7);
  Partition parts = voronoi_partition(g, side, rng);
  Shortcut sc = engine().build_shortcut(g, t, parts, greedy_certificate());
  return {std::move(g), std::move(parts), std::move(sc)};
}

void BM_AggregationGrid(benchmark::State& state) {
  const GridAggregationCase c =
      grid_aggregation_case(static_cast<int>(state.range(0)));
  run_aggregations(state, c.g, c.parts, c.sc);
}
BENCHMARK(BM_AggregationGrid)->Arg(32)->Arg(64);

// The aggregator's table construction alone (no rounds): the 64x64 grid
// case above.
void BM_AggregatorBuild(benchmark::State& state) {
  const GridAggregationCase c =
      grid_aggregation_case(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    congest::PartwiseAggregator agg(c.g, c.parts, c.sc);
    benchmark::DoNotOptimize(agg.participations());
  }
}
BENCHMARK(BM_AggregatorBuild)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
