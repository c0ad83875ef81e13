#include "congest/primitives.hpp"

#include "congest/vertex_program.hpp"

namespace mns::congest {

namespace {

/// Leaves-to-root sum: a node reports its subtree total to its parent once
/// every child reported; the ready list is the frontier.
struct ConvergecastProgram {
  const RootedTree& tree;
  std::vector<int> waiting;
  std::vector<std::int64_t> total;
  std::vector<char> sent;
  FrontierTracker tracker;

  ConvergecastProgram(Simulator& sim, const RootedTree& t,
                      const std::vector<std::int64_t>& values)
      : tree(t), waiting(static_cast<std::size_t>(t.num_vertices()), 0),
        total(values), sent(static_cast<std::size_t>(t.num_vertices()), 0),
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
    sender.send(tree.parent_edge(v), Message{0, 0, total[v]});
    sent[v] = 1;
  }

  void receive(VertexId v, Inbox inbox,
               const ShardContext& ctx) {
    for (const Delivery& d : inbox) {
      total[v] += d.msg.value;
      --waiting[v];
    }
    if (v != tree.root() && !sent[v] && waiting[v] == 0)
      tracker.wake_from_receive(v, ctx.shard);
  }

  void end_round() { tracker.end_round(); }
};

}  // namespace

ConvergecastSumResult convergecast_sum(Simulator& sim, const RootedTree& tree,
                                       const std::vector<std::int64_t>& values) {
  const VertexId n = tree.num_vertices();
  require(static_cast<VertexId>(values.size()) == n,
          "convergecast_sum: size mismatch");
  ConvergecastProgram prog(sim, tree, values);
  long long rounds = run_vertex_program(sim, prog);
  ConvergecastSumResult out;
  out.sum_at_root = prog.total[tree.root()];
  out.rounds = rounds;
  return out;
}

}  // namespace mns::congest
