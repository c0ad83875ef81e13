#include "congest/mst.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <numeric>

#include "congest/vertex_program.hpp"
#include "graph/union_find.hpp"

namespace mns::congest {

namespace {
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

/// One-round all-to-neighbours fragment-label exchange: every node offers
/// its fragment id on every incident edge; `recv` drains each delivered
/// inbox (writing only v-local state).
template <typename RecvFn>
struct ExchangeProgram {
  const Graph& g;
  const std::vector<PartId>& frag;
  RecvFn recv;
  std::vector<VertexId> everyone;
  bool done = false;

  ExchangeProgram(const Graph& graph, const std::vector<PartId>& f, RecvFn r)
      : g(graph), frag(f), recv(std::move(r)) {
    everyone.resize(static_cast<std::size_t>(g.num_vertices()));
    std::iota(everyone.begin(), everyone.end(), 0);
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return done ? std::span<const VertexId>() : std::span<const VertexId>(
                                                    everyone);
  }
  void send(VertexId v, VertexSender& out) {
    for (EdgeId e : g.incident_edges(v)) out.send(e, Message{0, 0, frag[v]});
  }
  void receive(VertexId v, Inbox inbox,
               const ShardContext&) {
    recv(v, inbox);
  }
  void end_round() { done = true; }
};

template <typename RecvFn>
long long run_fragment_exchange(Simulator& sim, const std::vector<PartId>& frag,
                                RecvFn recv) {
  ExchangeProgram<RecvFn> prog(sim.graph(), frag, std::move(recv));
  return run_vertex_program(sim, prog);
}

/// Pipelined upcast of (fragment, candidate) pairs toward the BFS root: one
/// improved pair per node per round until quiescent. table/unsent are
/// v-local; the frontier is every non-root node with unsent entries.
struct GhsUpcastProgram {
  const RootedTree& tree;
  std::vector<std::map<PartId, AggValue>>& table;
  std::vector<std::map<PartId, AggValue>> unsent;
  FrontierTracker tracker;

  GhsUpcastProgram(Simulator& sim, const RootedTree& t,
                   std::vector<std::map<PartId, AggValue>>& tab)
      : tree(t), table(tab), unsent(tab),
        tracker(sim.num_shards(), t.num_vertices()) {
    for (VertexId v = 0; v < tree.num_vertices(); ++v)
      if (v != tree.root() && !unsent[static_cast<std::size_t>(v)].empty())
        tracker.seed(v);
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }

  void send(VertexId v, VertexSender& out) {
    auto& pending = unsent[static_cast<std::size_t>(v)];
    auto it = pending.begin();
    out.send(tree.parent_edge(v),
             Message{it->first, it->second.aux, it->second.value});
    pending.erase(it);
    if (!pending.empty()) tracker.keep_from_send(v, out.shard());
  }

  void receive(VertexId v, Inbox inbox,
               const ShardContext& ctx) {
    bool woke = false;
    for (const Delivery& d : inbox) {
      PartId p = d.msg.tag;
      AggValue cand{d.msg.value, d.msg.aux};
      auto& tab = table[static_cast<std::size_t>(v)];
      auto it = tab.find(p);
      if (it == tab.end() || cand < it->second) {
        tab[p] = cand;
        unsent[static_cast<std::size_t>(v)][p] = cand;
        woke = true;
      }
    }
    if (woke && v != tree.root()) tracker.wake_from_receive(v, ctx.shard);
  }

  void end_round() { tracker.end_round(); }
};

/// Pipelined downcast of the relabel table from the root: each node forwards
/// one queued (old fragment -> new id) pair to all children per round.
struct GhsDowncastProgram {
  const RootedTree& tree;
  std::vector<std::vector<std::pair<PartId, PartId>>>& to_send;
  std::vector<std::size_t> cursor;
  FrontierTracker tracker;

  GhsDowncastProgram(Simulator& sim, const RootedTree& t,
                     std::vector<std::vector<std::pair<PartId, PartId>>>& ts)
      : tree(t), to_send(ts),
        cursor(static_cast<std::size_t>(t.num_vertices()), 0),
        tracker(sim.num_shards(), t.num_vertices()) {
    for (VertexId v = 0; v < tree.num_vertices(); ++v)
      if (!to_send[static_cast<std::size_t>(v)].empty()) tracker.seed(v);
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }

  void send(VertexId v, VertexSender& out) {
    auto [p, label] = to_send[static_cast<std::size_t>(v)]
                             [cursor[static_cast<std::size_t>(v)]];
    ++cursor[static_cast<std::size_t>(v)];
    for (VertexId c : tree.children(v))
      out.send(tree.parent_edge(c), Message{p, 0, label});
    if (cursor[static_cast<std::size_t>(v)] <
        to_send[static_cast<std::size_t>(v)].size())
      tracker.keep_from_send(v, out.shard());
  }

  void receive(VertexId v, Inbox inbox,
               const ShardContext& ctx) {
    for (const Delivery& d : inbox)
      to_send[static_cast<std::size_t>(v)].push_back(
          {d.msg.tag, static_cast<PartId>(d.msg.value)});
    tracker.wake_from_receive(v, ctx.shard);
  }

  void end_round() { tracker.end_round(); }
};

}  // namespace

std::vector<EdgeId> kruskal_mst(const Graph& g, const std::vector<Weight>& w) {
  require(static_cast<EdgeId>(w.size()) == g.num_edges(),
          "kruskal: weight size mismatch");
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return std::pair(w[a], a) < std::pair(w[b], b);
  });
  UnionFind uf(g.num_vertices());
  std::vector<EdgeId> mst;
  for (EdgeId e : order)
    if (uf.unite(g.edge(e).u, g.edge(e).v)) mst.push_back(e);
  return mst;
}

MstPayload boruvka_mst(const std::vector<Weight>& w,
                       const ShortcutSource& source, PhaseMeter& meter,
                       VertexId stop_at_fragment_size) {
  Simulator& sim = meter.sim();
  const Graph& g = sim.graph();
  const VertexId n = g.num_vertices();
  require(static_cast<bool>(source), "boruvka_mst: no shortcut source");
  require(static_cast<EdgeId>(w.size()) == g.num_edges(),
          "boruvka_mst: weight size mismatch");

  MstPayload out;
  std::vector<PartId> frag(n);
  std::iota(frag.begin(), frag.end(), 0);

  // Neighbour fragment ids, flat per directed receive slot 2e + side (side
  // keyed by the receiving endpoint; every exchange writes every slot) —
  // one reusable array instead of n per-vertex maps (DESIGN.md §9).
  std::vector<PartId> nbr_frag(2 * static_cast<std::size_t>(g.num_edges()));
  auto recv_slot = [&g](VertexId v, EdgeId e) {
    return 2 * static_cast<std::size_t>(e) + (g.edge(e).u == v ? 0u : 1u);
  };
  // The phase partition is heap-held so that the aggregator built over it
  // (which keeps a pointer) survives the hand-over to the next phase: the
  // dissemination aggregator of phase k is built over phase k+1's partition
  // and is carried into phase k+1 with the shortcut it was built from. At
  // most one aggregator is alive at a time.
  auto parts = std::make_unique<Partition>(
      std::vector<PartId>(frag.begin(), frag.end()));
  std::unique_ptr<PartwiseAggregator> agg;
  std::shared_ptr<const Shortcut> agg_shortcut;
  auto build_aggregator = [&](const Partition& over,
                              std::shared_ptr<const Shortcut> shortcut) {
    agg.reset();
    agg = std::make_unique<PartwiseAggregator>(g, over, *shortcut);
    agg_shortcut = std::move(shortcut);
  };
  while (true) {
    if (parts->num_parts() == 1) break;
    if (stop_at_fragment_size > 0) {
      VertexId smallest = n;
      for (PartId p = 0; p < parts->num_parts(); ++p)
        smallest = std::min(smallest,
                            static_cast<VertexId>(parts->members(p).size()));
      if (smallest >= stop_at_fragment_size) break;
    }
    meter.open_phase();

    // 1 round: every node tells each neighbour its fragment id.
    (void)run_fragment_exchange(
        sim, frag, [&](VertexId v, Inbox inbox) {
          for (const Delivery& d : inbox)
            nbr_frag[recv_slot(v, d.edge)] =
                static_cast<PartId>(d.msg.value);
        });

    // Local min outgoing edge per node.
    std::vector<AggValue> initial(n, AggValue{kInf, 0});
    for (VertexId v = 0; v < n; ++v) {
      for (EdgeId e : g.incident_edges(v)) {
        if (nbr_frag[recv_slot(v, e)] == frag[v]) continue;
        AggValue cand{w[e], e};
        if (cand < initial[v]) initial[v] = cand;
      }
    }

    // Obtain this phase's shortcut and aggregate fragment minima. A FRESH
    // shortcut is charged one extra aggregation's worth of rounds (the
    // [HIZ16a] substitution, DESIGN.md §2); a cached one was already paid
    // for when it was first built. The source is asked every phase, so the
    // charges and cache counters do not depend on the reuse below: the
    // carried aggregator serves when the source returns its shortcut again
    // (the same object, or equal edge lists — LDD projection builds new
    // objects).
    SourcedShortcut sc = source(g, *parts);
    if (!agg || (sc.shortcut != agg_shortcut &&
                 sc.shortcut->edges_of_part != agg_shortcut->edges_of_part))
      build_aggregator(*parts, sc.shortcut);
    const AggregationResult res = agg->aggregate_min(sim, initial);
    meter.aggregated();
    if (sc.fresh) meter.charge(res.rounds);

    // Merge along chosen edges (star contraction via DSU).
    bool merged_any = false;
    UnionFind uf(parts->num_parts());
    std::vector<EdgeId> chosen;
    for (PartId p = 0; p < parts->num_parts(); ++p) {
      if (res.min_of_part[p].value == kInf) continue;  // no outgoing edge
      EdgeId e = res.min_of_part[p].aux;
      chosen.push_back(e);
      if (uf.unite(frag[g.edge(e).u], frag[g.edge(e).v])) merged_any = true;
    }
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    out.edges.insert(out.edges.end(), chosen.begin(), chosen.end());
    if (!merged_any) break;  // disconnected graph or done

    std::vector<PartId> relabel = uf.dense_labels();
    std::vector<PartId> new_frag(n);
    for (VertexId v = 0; v < n; ++v) new_frag[v] = relabel[frag[v]];

    // Label dissemination: one aggregation on the NEW partition (members
    // flood the minimum old label; rounds measured; result label irrelevant
    // beyond synchronization). The next phase aggregates over this same
    // partition, so with a caching source its shortcut — charged here, on
    // first build — is served back without a second charge, and this
    // aggregator is carried over to serve it. The phase aggregator is freed
    // first: the source may construct here, and the two should not peak
    // together.
    auto new_parts = std::make_unique<Partition>(
        std::vector<PartId>(new_frag.begin(), new_frag.end()));
    agg.reset();
    SourcedShortcut new_sc = source(g, *new_parts);
    build_aggregator(*new_parts, std::move(new_sc.shortcut));
    std::vector<AggValue> labels(n);
    for (VertexId v = 0; v < n; ++v) labels[v] = AggValue{frag[v], 0};
    AggregationResult res2 = agg->aggregate_min(sim, labels);
    meter.aggregated();
    if (new_sc.fresh) meter.charge(res2.rounds);

    meter.close_phase("boruvka-phase");
    frag = std::move(new_frag);
    parts = std::move(new_parts);
  }

  std::sort(out.edges.begin(), out.edges.end());
  out.edges.erase(std::unique(out.edges.begin(), out.edges.end()),
                  out.edges.end());
  out.fragment_of = std::move(frag);
  return out;
}

MstPayload controlled_ghs_mst(const std::vector<Weight>& w,
                              const RootedTree& bfs_tree, PhaseMeter& meter) {
  Simulator& sim = meter.sim();
  const Graph& g = sim.graph();
  const VertexId n = g.num_vertices();

  // Phase 1: shortcut-free Boruvka until fragments reach sqrt(n).
  MstPayload out = boruvka_mst(
      w, empty_shortcut_source(), meter,
      static_cast<VertexId>(std::ceil(std::sqrt(static_cast<double>(n)))));
  std::vector<PartId>& frag = out.fragment_of;

  // Phase 2: pipelined upcast/downcast over the BFS tree.
  while (true) {
    PartId num_frag = *std::max_element(frag.begin(), frag.end()) + 1;
    if (num_frag <= 1) break;
    meter.open_phase();

    // One round of fragment exchange with neighbours; local candidates.
    std::vector<std::map<PartId, AggValue>> table(n);
    (void)run_fragment_exchange(
        sim, frag, [&](VertexId v, Inbox inbox) {
          AggValue best{kInf, 0};
          for (const Delivery& d : inbox)
            if (static_cast<PartId>(d.msg.value) != frag[v]) {
              AggValue cand{w[d.edge], d.edge};
              best = std::min(best, cand);
            }
          if (best.value != kInf) table[static_cast<std::size_t>(v)][frag[v]] =
              best;
        });

    // Pipelined upcast: each node sends one improved (fragment, candidate)
    // pair to its parent per round until quiescent.
    {
      GhsUpcastProgram up(sim, bfs_tree, table);
      (void)run_vertex_program(sim, up);
    }

    // Root merges centrally.
    UnionFind uf(num_frag);
    bool merged_any = false;
    std::vector<EdgeId> chosen;
    for (const auto& [p, cand] : table[bfs_tree.root()]) {
      EdgeId e = cand.aux;
      chosen.push_back(e);
      if (uf.unite(frag[g.edge(e).u], frag[g.edge(e).v])) merged_any = true;
    }
    // Fragments whose candidates never reached the root cannot exist at
    // quiescence: every fragment with an outgoing edge has a candidate at
    // the root. If nothing merged, we are done (single fragment per
    // component).
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    out.edges.insert(out.edges.end(), chosen.begin(), chosen.end());
    if (!merged_any) break;
    std::vector<PartId> relabel = uf.dense_labels();

    // Pipelined downcast of the relabel table (old fragment -> new id).
    std::vector<std::vector<std::pair<PartId, PartId>>> to_send(n);
    {
      std::vector<std::pair<PartId, PartId>> pairs;
      for (PartId p = 0; p < num_frag; ++p) pairs.push_back({p, relabel[p]});
      to_send[bfs_tree.root()] = std::move(pairs);
    }
    {
      GhsDowncastProgram down(sim, bfs_tree, to_send);
      (void)run_vertex_program(sim, down);
    }
    for (VertexId v = 0; v < n; ++v) frag[v] = relabel[frag[v]];
    meter.close_phase("ghs-phase");
  }

  std::sort(out.edges.begin(), out.edges.end());
  out.edges.erase(std::unique(out.edges.begin(), out.edges.end()),
                  out.edges.end());
  return out;
}

}  // namespace mns::congest
