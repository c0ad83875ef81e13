#include "congest/bfs.hpp"

#include <stdexcept>

#include "congest/vertex_program.hpp"

namespace mns::congest {

namespace {

/// Flooding BFS as a VertexProgram: frontier nodes offer their distance on
/// every edge toward unsettled neighbours; an unsettled node adopts the
/// first delivery as its parent. All receive-side writes are v-local; the
/// next frontier is the nodes settled this round.
struct BfsProgram {
  const Graph& g;
  BfsPayload& r;
  FrontierTracker tracker;

  BfsProgram(Simulator& sim, BfsPayload& result, VertexId root)
      : g(sim.graph()), r(result),
        tracker(sim.num_shards(), sim.graph().num_vertices()) {
    tracker.seed(root);
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }

  void send(VertexId v, VertexSender& out) {
    auto eids = g.incident_edges(v);
    auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < eids.size(); ++i) {
      if (r.dist[nbrs[i]] != -1) continue;  // local knowledge shortcut is
      // not available in CONGEST, but suppressing sends to already-settled
      // neighbors only reduces message counts, not rounds.
      out.send(eids[i], Message{0, 0, r.dist[v]});
    }
  }

  void receive(VertexId v, Inbox inbox,
               const ShardContext& ctx) {
    if (r.dist[v] != -1) return;
    const Delivery& d = inbox.front();
    r.dist[v] = static_cast<int>(d.msg.value) + 1;
    r.parent[v] = d.from;
    r.parent_edge[v] = d.edge;
    tracker.wake_from_receive(v, ctx.shard);
  }

  void end_round() { tracker.end_round(); }
};

}  // namespace

BfsPayload distributed_bfs(const Bfs& q, PhaseMeter& meter) {
  Simulator& sim = meter.sim();
  const Graph& g = sim.graph();
  const VertexId n = g.num_vertices();
  const VertexId root = q.root;
  require(root >= 0 && root < n, "distributed_bfs: root out of range");
  BfsPayload r;
  r.dist.assign(n, -1);
  r.parent.assign(n, kInvalidVertex);
  r.parent_edge.assign(n, kInvalidEdge);
  r.dist[root] = 0;

  meter.open_phase();
  BfsProgram prog(sim, r, root);
  (void)run_vertex_program(sim, prog);
  for (VertexId v = 0; v < n; ++v)
    if (r.dist[v] == -1)
      throw std::invalid_argument("distributed_bfs: graph disconnected");
  return r;
}

}  // namespace mns::congest
