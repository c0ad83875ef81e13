// The round engine's allocation contract (DESIGN.md §9 "Round buffers"):
//
//   * zero steady-state allocations: once the round buffers hit their
//     high-water capacity, further rounds make NO operator new call, on the
//     direct-send path, on the staged path at width 8, and on the batch
//     delivery form at width 1;
//   * a warm PartwiseAggregator allocates only its result;
//   * error paths validate before any buffer write: a throwing stage_send
//     leaves every staged and pending send as it was.
//
// This file replaces the global operator new (plain and aligned forms) with
// a counting one, so every heap allocation in the process is seen, whoever
// makes it. Counting windows hold no test assertion and build nothing: the
// programs are made and warmed before the window opens.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "congest/aggregation.hpp"
#include "congest/simulator.hpp"
#include "congest/vertex_program.hpp"
#include "core/shortcut_engine.hpp"
#include "gen/basic.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* counted_new(std::size_t bytes, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a nonzero multiple of the alignment.
  const std::size_t rounded = (std::max<std::size_t>(bytes, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_new(bytes); }
void* operator new[](std::size_t bytes) { return counted_new(bytes); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_new(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return counted_new(bytes, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mns {
namespace {

using congest::AggValue;
using congest::Message;
using congest::Simulator;

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Ping-pong traffic dense enough to keep every per-round buffer warm:
/// every vertex of a cycle sends to both neighbours each round.
void run_dense_rounds(const Graph& g, Simulator& sim, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      for (EdgeId e : g.incident_edges(v)) sim.send(v, e, Message{0, 0, v});
    sim.finish_round();
  }
}

TEST(RoundAllocations, ZeroSteadyStateAllocationsSequential) {
  Graph g = gen::cycle(512);
  Simulator sim(g);
  run_dense_rounds(g, sim, 4);  // warm-up: buffers reach high water
  const std::size_t before = allocations();
  run_dense_rounds(g, sim, 50);
  const std::size_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "steady-state rounds allocated";
  EXPECT_EQ(sim.rounds(), 54);
}

/// Full-frontier traffic that never quiesces: every vertex sends its label
/// on every edge each round and stays in the frontier, even vertices kept
/// from the send phase, odd ones woken by their deliveries, so both of
/// FrontierTracker's per-shard lists carry traffic every round.
struct PingProgram {
  const Graph* g;
  std::vector<std::int64_t> label;
  congest::FrontierTracker tracker;

  PingProgram(const Graph& graph, const Simulator& sim)
      : g(&graph),
        label(static_cast<std::size_t>(graph.num_vertices())),
        tracker(sim.num_shards(), graph.num_vertices()) {
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      label[static_cast<std::size_t>(v)] =
          (static_cast<std::int64_t>(v) * 2654435761LL) % 100003;
      tracker.seed(v);
    }
  }
  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }
  void send(VertexId v, congest::VertexSender& out) {
    for (EdgeId e : g->incident_edges(v))
      out.send(e, Message{0, 0, label[static_cast<std::size_t>(v)]});
    if (v % 2 == 0) tracker.keep_from_send(v, out.shard());
  }
  void absorb(VertexId v, std::int64_t value, int shard) {
    std::int64_t& mine = label[static_cast<std::size_t>(v)];
    mine = std::min(mine, value);
    tracker.wake_from_receive(v, shard);
  }
  void receive(VertexId v, congest::Inbox inbox,
               const congest::ShardContext& ctx) {
    for (const congest::Delivery& d : inbox) absorb(v, d.msg.value, ctx.shard);
  }
  void end_round() { tracker.end_round(); }
};

/// PingProgram in the batch delivery form (used when one shard runs).
struct BatchPingProgram : PingProgram {
  using PingProgram::PingProgram;
  void receive_batch(const congest::RoundBatch& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i)
      absorb(batch.to[i], batch.payload[i].value, 0);
  }
};

/// Warms `prog` for a few rounds, then returns the allocations made by the
/// next `rounds` rounds (each of which must be a real round).
template <typename Program>
std::size_t steady_state_allocations(Simulator& sim, Program& prog,
                                     int rounds) {
  for (int r = 0; r < 4; ++r)
    (void)congest::run_vertex_program_round(sim, prog);
  const long long start = sim.rounds();
  const std::size_t before = allocations();
  for (int r = 0; r < rounds; ++r)
    (void)congest::run_vertex_program_round(sim, prog);
  const std::size_t during = allocations() - before;
  EXPECT_EQ(sim.rounds() - start, rounds) << "the program quiesced";
  return during;
}

TEST(RoundAllocations, ZeroSteadyStateAllocationsAtWidth8) {
  // The staged path: the frontier exceeds kParallelGrain, so all 8 shards
  // really stage, and receive() fans over the pool.
  Graph g = gen::grid(40, 40).graph();
  Simulator sim(g, congest::ExecutionPolicy{8});
  ASSERT_EQ(sim.num_shards(), 8);
  ASSERT_GE(static_cast<std::size_t>(g.num_vertices()),
            congest::kParallelGrain);
  PingProgram prog(g, sim);
  EXPECT_EQ(steady_state_allocations(sim, prog, 50), 0u)
      << "width-8 steady-state rounds allocated";
}

TEST(RoundAllocations, ZeroSteadyStateAllocationsInBatchForm) {
  static_assert(congest::BatchReceiver<BatchPingProgram>);
  Graph g = gen::grid(40, 40).graph();
  Simulator sim(g);
  BatchPingProgram prog(g, sim);
  EXPECT_EQ(steady_state_allocations(sim, prog, 50), 0u)
      << "batch-form steady-state rounds allocated";
}

/// A warm aggregator's run allocates exactly once: its result's
/// min_of_part. Everything else reuses the workspace of earlier runs.
void expect_warm_aggregation_allocates_only_its_result(int width) {
  Graph g = gen::grid(40, 40).graph();
  Rng rng(7);
  Partition parts = voronoi_partition(g, 24, rng);
  RootedTree tree = RootedTree::from_bfs(bfs(g, 0), 0);
  Shortcut sc = ShortcutEngine::global()
                    .build(g, tree, parts, greedy_certificate())
                    .shortcut;
  congest::PartwiseAggregator agg(g, parts, sc);
  Simulator sim(g, congest::ExecutionPolicy{width});
  std::vector<AggValue> init(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    init[static_cast<std::size_t>(v)] =
        AggValue{(static_cast<std::int64_t>(v) * 2654435761LL) % 100003, v};
  const congest::AggregationResult first = agg.aggregate_min(sim, init);
  (void)agg.aggregate_min(sim, init);

  const std::size_t before = allocations();
  const congest::AggregationResult third = agg.aggregate_min(sim, init);
  const std::size_t during = allocations() - before;
  EXPECT_EQ(during, 1u) << "width " << width;
  EXPECT_GT(third.rounds, 0);
  EXPECT_EQ(third.rounds, first.rounds);
  EXPECT_EQ(third.min_of_part, first.min_of_part);
}

TEST(RoundAllocations, WarmAggregationAllocatesOnlyItsResult) {
  expect_warm_aggregation_allocates_only_its_result(1);
  expect_warm_aggregation_allocates_only_its_result(4);
}

TEST(RoundAllocations, ThrowingStageSendStagesNothing) {
  // Validation precedes any buffer write: after the throwing calls, the one
  // valid staged send is the round's only message.
  Graph g = gen::path(3);
  Simulator sim(g, congest::ExecutionPolicy{2});
  EXPECT_THROW(sim.stage_send(0, 2, g.find_edge(0, 1), Message{}),
               std::invalid_argument);  // 2 is not on edge (0,1)
  EXPECT_THROW(sim.stage_send(5, 0, g.find_edge(0, 1), Message{}),
               std::out_of_range);  // shard out of range
  EXPECT_THROW(sim.stage_send(-1, 0, g.find_edge(0, 1), Message{}),
               std::out_of_range);
  sim.stage_send(0, 0, g.find_edge(0, 1), Message{0, 0, 42});
  sim.finish_round();
  EXPECT_EQ(sim.messages_sent(), 1);
  ASSERT_EQ(sim.inbox(1).size(), 1u);
  EXPECT_EQ(sim.inbox(1)[0].msg.value, 42);
}

}  // namespace
}  // namespace mns
