// Contract tests for the vertex-parallel round engine (DESIGN.md §7): the
// WorkerPool primitive, PerShard merging, and — above all — the determinism
// contract: a VertexProgram produces bit-identical rounds, messages, inbox
// traffic and results at every thread count, including frontiers large
// enough to actually cross kParallelGrain and exercise the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "congest/bfs.hpp"
#include "congest/primitives.hpp"
#include "congest/vertex_program.hpp"
#include "gen/basic.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"

namespace mns {
namespace {

using congest::Delivery;
using congest::ExecutionPolicy;
using congest::Inbox;
using congest::Message;
using congest::PerShard;
using congest::ShardContext;
using congest::Simulator;
using congest::VertexSender;
using congest::WorkerPool;

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> hits(64);
  pool.run(64, [&](int t) { ++hits[static_cast<std::size_t>(t)]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Reusable across generations, including fewer tasks than threads.
  std::atomic<int> total{0};
  pool.run(2, [&](int) { ++total; });
  EXPECT_EQ(total.load(), 2);
}

TEST(WorkerPool, PropagatesTheFirstTaskException) {
  WorkerPool pool(3);
  EXPECT_THROW(
      pool.run(8,
               [&](int t) {
                 if (t % 2 == 1) throw std::runtime_error("task failed");
               }),
      std::runtime_error);
  // The pool survives a throwing generation.
  std::atomic<int> total{0};
  pool.run(3, [&](int) { ++total; });
  EXPECT_EQ(total.load(), 3);
}

TEST(PerShard, MergesInShardOrder) {
  PerShard<std::vector<int>> acc(3);
  acc[2].push_back(30);
  acc[0].push_back(10);
  acc[1].push_back(20);
  acc[0].push_back(11);
  std::vector<int> merged;
  acc.for_each([&](std::vector<int>& part) {
    merged.insert(merged.end(), part.begin(), part.end());
  });
  EXPECT_EQ(merged, (std::vector<int>{10, 11, 20, 30}));
}

// A deliberately stateful program: token counting over a large frontier
// (every vertex echoes a value to every neighbour; receivers keep a running
// minimum), sized so the parallel path genuinely engages the pool.
struct EchoMinProgram {
  const Graph& g;
  std::vector<std::int64_t> best;
  std::vector<VertexId> everyone;
  int rounds_left;
  PerShard<char> changed;
  bool running = true;

  EchoMinProgram(Simulator& sim, int rounds)
      : g(sim.graph()), rounds_left(rounds), changed(sim.num_shards()) {
    const VertexId n = g.num_vertices();
    best.resize(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v)
      best[static_cast<std::size_t>(v)] = (v * 2654435761LL) % 100000;
    everyone.resize(static_cast<std::size_t>(n));
    std::iota(everyone.begin(), everyone.end(), 0);
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return running && rounds_left > 0 ? std::span<const VertexId>(everyone)
                                      : std::span<const VertexId>();
  }
  void send(VertexId v, VertexSender& out) {
    for (EdgeId e : g.incident_edges(v))
      out.send(e, Message{0, 0, best[static_cast<std::size_t>(v)]});
  }
  void receive(VertexId v, Inbox inbox,
               const ShardContext& ctx) {
    for (const Delivery& d : inbox)
      if (d.msg.value < best[static_cast<std::size_t>(v)]) {
        best[static_cast<std::size_t>(v)] = d.msg.value;
        changed[ctx.shard] = 1;
      }
  }
  void end_round() {
    --rounds_left;
    bool any = false;
    changed.for_each([&](char& flag) {
      any = any || flag != 0;
      flag = 0;
    });
    running = any;
  }
};

TEST(VertexProgramEngine, BitIdenticalAcrossThreadCounts) {
  Rng rng(11);
  Graph g = gen::random_maximal_planar(900, rng).graph();
  ASSERT_GE(static_cast<std::size_t>(g.num_vertices()),
            congest::kParallelGrain);  // the pool path must really engage

  std::vector<std::int64_t> reference;
  long long ref_rounds = 0, ref_messages = 0;
  for (int threads : {1, 2, 4, 8}) {
    Simulator sim(g, ExecutionPolicy{threads});
    EchoMinProgram prog(sim, 64);
    long long rounds = run_vertex_program(sim, prog);
    if (threads == 1) {
      reference = prog.best;
      ref_rounds = rounds;
      ref_messages = sim.messages_sent();
      continue;
    }
    EXPECT_EQ(prog.best, reference) << threads << " threads";
    EXPECT_EQ(rounds, ref_rounds) << threads << " threads";
    EXPECT_EQ(sim.messages_sent(), ref_messages) << threads << " threads";
  }
}

TEST(VertexProgramEngine, PortedPrimitivesMatchAcrossThreadCounts) {
  // The ported workloads themselves (BFS flood + convergecast over the
  // flooded tree) through both code paths: n is large enough that each
  // round crosses the grain.
  Rng rng(23);
  Graph g = gen::random_maximal_planar(600, rng).graph();
  Simulator seq(g, ExecutionPolicy{1});
  Simulator par(g, ExecutionPolicy{4});

  congest::RunReport r1, r2;
  congest::PhaseMeter m1(seq, r1), m2(par, r2);
  const congest::BfsPayload b1 = congest::distributed_bfs(congest::Bfs{0}, m1);
  const congest::BfsPayload b2 = congest::distributed_bfs(congest::Bfs{0}, m2);
  EXPECT_EQ(b1.dist, b2.dist);
  EXPECT_EQ(b1.parent, b2.parent);  // not just distances: identical trees
  EXPECT_EQ(b1.parent_edge, b2.parent_edge);
  EXPECT_EQ(seq.rounds(), par.rounds());

  const RootedTree tree(0, b1.parent, b1.parent_edge);
  std::vector<std::int64_t> values(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) values[v] = 7 * v + 1;
  const auto c1 = congest::convergecast_sum(seq, tree, values);
  const auto c2 = congest::convergecast_sum(par, tree, values);
  EXPECT_EQ(c1.sum_at_root, c2.sum_at_root);
  EXPECT_EQ(c1.rounds, c2.rounds);
  EXPECT_EQ(seq.messages_sent(), par.messages_sent());
}

TEST(VertexProgramEngine, StagedProgramErrorsPropagateToCaller) {
  // A buggy program that violates CONGEST capacity from a worker thread:
  // the deferred check must surface as the usual std::invalid_argument on
  // the calling thread, not crash a worker.
  Graph g = gen::star(600);
  struct BadProgram {
    const Graph& g;
    std::vector<VertexId> leaves;
    bool done = false;
    explicit BadProgram(const Graph& graph) : g(graph) {
      for (VertexId v = 1; v < g.num_vertices(); ++v) leaves.push_back(v);
    }
    [[nodiscard]] std::span<const VertexId> frontier() const {
      return done ? std::span<const VertexId>()
                  : std::span<const VertexId>(leaves);
    }
    void send(VertexId v, VertexSender& out) {
      out.send(g.find_edge(0, v), Message{});
      out.send(g.find_edge(0, v), Message{});  // second use of the same slot
    }
    void receive(VertexId, Inbox, const ShardContext&) {}
    void end_round() { done = true; }
  };
  Simulator sim(g, ExecutionPolicy{4});
  BadProgram prog(g);
  EXPECT_THROW(run_vertex_program(sim, prog), std::invalid_argument);
}

}  // namespace
}  // namespace mns
