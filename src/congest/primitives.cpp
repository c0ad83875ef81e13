#include "congest/primitives.hpp"

#include <algorithm>

#include "congest/bfs.hpp"
#include "congest/vertex_program.hpp"

namespace mns::congest {

namespace {

/// Root-to-leaves value flooding along tree edges: each frontier node pushes
/// the value to its children; a child adopts on first delivery.
struct BroadcastProgram {
  const RootedTree& tree;
  BroadcastResult& out;
  std::vector<char> has;
  FrontierTracker tracker;

  BroadcastProgram(Simulator& sim, const RootedTree& t, BroadcastResult& o)
      : tree(t), out(o), has(static_cast<std::size_t>(t.num_vertices()), 0),
        tracker(sim.num_shards(), t.num_vertices()) {
    has[tree.root()] = 1;
    // Only nodes with children enter the frontier: a leaf-only frontier
    // would buy a message-free round the old send()==false check never
    // counted.
    if (!tree.children(tree.root()).empty()) tracker.seed(tree.root());
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }

  void send(VertexId v, VertexSender& sender) {
    for (VertexId c : tree.children(v))
      sender.send(tree.parent_edge(c), Message{0, 0, out.received[v]});
  }

  void receive(VertexId c, Inbox inbox,
               const ShardContext& ctx) {
    if (has[c]) return;
    has[c] = 1;
    out.received[c] = inbox.front().msg.value;
    if (!tree.children(c).empty()) tracker.wake_from_receive(c, ctx.shard);
  }

  void end_round() { tracker.end_round(); }
};

/// Leaves-to-root min: a node reports to its parent once every child
/// reported; the ready list is the frontier. kSum switches the combine to
/// addition (convergecast_sum: subtree totals instead of minima).
enum class ConvergecastOp { kMin, kSum };

template <ConvergecastOp Op>
struct ConvergecastProgram {
  const RootedTree& tree;
  std::vector<int> waiting;
  std::vector<std::int64_t> best;
  std::vector<char> sent;
  FrontierTracker tracker;

  ConvergecastProgram(Simulator& sim, const RootedTree& t,
                      const std::vector<std::int64_t>& values)
      : tree(t), waiting(static_cast<std::size_t>(t.num_vertices()), 0),
        best(values), sent(static_cast<std::size_t>(t.num_vertices()), 0),
        tracker(sim.num_shards(), t.num_vertices()) {
    const VertexId n = t.num_vertices();
    for (VertexId v = 0; v < n; ++v)
      waiting[v] = static_cast<int>(t.children(v).size());
    for (VertexId v = 0; v < n; ++v)
      if (v != t.root() && waiting[v] == 0) tracker.seed(v);
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }

  void send(VertexId v, VertexSender& sender) {
    sender.send(tree.parent_edge(v), Message{0, 0, best[v]});
    sent[v] = 1;
  }

  void receive(VertexId v, Inbox inbox,
               const ShardContext& ctx) {
    for (const Delivery& d : inbox) {
      if constexpr (Op == ConvergecastOp::kMin)
        best[v] = std::min(best[v], d.msg.value);
      else
        best[v] += d.msg.value;
      --waiting[v];
    }
    if (v != tree.root() && !sent[v] && waiting[v] == 0)
      tracker.wake_from_receive(v, ctx.shard);
  }

  void end_round() { tracker.end_round(); }
};

/// Min-id flooding on the raw graph: every node re-broadcasts its current
/// best over all edges each round until nothing improves anywhere (an OR
/// reduction over per-shard changed flags).
struct LeaderProgram {
  const Graph& g;
  std::vector<VertexId>& best;
  std::vector<VertexId> everyone;
  PerShard<char> changed;
  bool running = true;

  LeaderProgram(Simulator& sim, std::vector<VertexId>& b)
      : g(sim.graph()), best(b), changed(sim.num_shards()) {
    everyone.resize(static_cast<std::size_t>(g.num_vertices()));
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      everyone[static_cast<std::size_t>(v)] = v;
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return running ? std::span<const VertexId>(everyone)
                   : std::span<const VertexId>();
  }

  void send(VertexId v, VertexSender& sender) {
    for (EdgeId e : g.incident_edges(v)) sender.send(e, Message{0, 0, best[v]});
  }

  void receive(VertexId v, Inbox inbox,
               const ShardContext& ctx) {
    for (const Delivery& d : inbox)
      if (d.msg.value < best[v]) {
        best[v] = static_cast<VertexId>(d.msg.value);
        changed[ctx.shard] = 1;
      }
  }

  void end_round() {
    bool any = false;
    changed.for_each([&](char& flag) {
      any = any || flag != 0;
      flag = 0;
    });
    running = any;
  }
};

}  // namespace

BroadcastResult broadcast(Simulator& sim, const RootedTree& tree,
                          std::int64_t value) {
  const VertexId n = tree.num_vertices();
  BroadcastResult out;
  out.received.assign(n, 0);
  out.received[tree.root()] = value;
  BroadcastProgram prog(sim, tree, out);
  out.rounds = run_vertex_program(sim, prog);
  return out;
}

ConvergecastResult convergecast_min(Simulator& sim, const RootedTree& tree,
                                    const std::vector<std::int64_t>& values) {
  const VertexId n = tree.num_vertices();
  require(static_cast<VertexId>(values.size()) == n,
          "convergecast_min: size mismatch");
  ConvergecastProgram<ConvergecastOp::kMin> prog(sim, tree, values);
  long long rounds = run_vertex_program(sim, prog);
  ConvergecastResult out;
  out.min_at_root = prog.best[tree.root()];
  out.rounds = rounds;
  return out;
}

ConvergecastSumResult convergecast_sum(Simulator& sim, const RootedTree& tree,
                                       const std::vector<std::int64_t>& values) {
  const VertexId n = tree.num_vertices();
  require(static_cast<VertexId>(values.size()) == n,
          "convergecast_sum: size mismatch");
  ConvergecastProgram<ConvergecastOp::kSum> prog(sim, tree, values);
  long long rounds = run_vertex_program(sim, prog);
  ConvergecastSumResult out;
  out.sum_at_root = prog.best[tree.root()];
  out.rounds = rounds;
  return out;
}

LeaderResult elect_leader(Simulator& sim) {
  const Graph& g = sim.graph();
  const VertexId n = g.num_vertices();
  std::vector<VertexId> best(n);
  for (VertexId v = 0; v < n; ++v) best[v] = v;
  LeaderProgram prog(sim, best);
  long long rounds = run_vertex_program(sim, prog);
  LeaderResult out;
  out.leader = best[0];
  out.rounds = rounds;
  return out;
}

DiameterEstimate estimate_diameter(Simulator& sim, VertexId start) {
  long long r0 = sim.rounds();
  DistributedBfsResult first = distributed_bfs(sim, start);
  VertexId far = start;
  for (VertexId v = 0; v < sim.graph().num_vertices(); ++v)
    if (first.dist[v] > first.dist[far]) far = v;
  DistributedBfsResult second = distributed_bfs(sim, far);
  int ecc = 0;
  for (int d : second.dist) ecc = std::max(ecc, d);
  DiameterEstimate out;
  out.estimate = ecc;
  out.rounds = sim.rounds() - r0;
  return out;
}

}  // namespace mns::congest
