#include "congest/mincut.hpp"

#include <algorithm>
#include <limits>

#include "graph/algorithms.hpp"

namespace mns::congest {

Weight exact_min_cut(const Graph& g, const std::vector<Weight>& w) {
  const VertexId n = g.num_vertices();
  require(n >= 2, "exact_min_cut: need >= 2 vertices");
  require(is_connected(g), "exact_min_cut: graph disconnected");
  // Stoer-Wagner with adjacency matrix of merged super-vertices.
  std::vector<std::vector<Weight>> a(n, std::vector<Weight>(n, 0));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    a[g.edge(e).u][g.edge(e).v] += w[e];
    a[g.edge(e).v][g.edge(e).u] += w[e];
  }
  std::vector<char> merged(n, 0);
  Weight best = std::numeric_limits<Weight>::max();
  for (VertexId phase = 0; phase + 1 < n; ++phase) {
    std::vector<Weight> wsum(n, 0);
    std::vector<char> added(n, 0);
    VertexId prev = kInvalidVertex, last = kInvalidVertex;
    for (VertexId i = 0; i < n - phase; ++i) {
      VertexId sel = kInvalidVertex;
      for (VertexId v = 0; v < n; ++v)
        if (!merged[v] && !added[v] &&
            (sel == kInvalidVertex || wsum[v] > wsum[sel]))
          sel = v;
      added[sel] = 1;
      prev = last;
      last = sel;
      for (VertexId v = 0; v < n; ++v)
        if (!merged[v] && !added[v]) wsum[v] += a[sel][v];
    }
    best = std::min(best, wsum[last]);
    // Merge last into prev.
    merged[last] = 1;
    for (VertexId v = 0; v < n; ++v) {
      a[prev][v] += a[last][v];
      a[v][prev] += a[v][last];
    }
  }
  return best;
}

std::vector<Weight> one_respecting_cut_values(
    const Graph& g, const std::vector<Weight>& w,
    const std::vector<EdgeId>& tree_edges) {
  const VertexId n = g.num_vertices();
  require(static_cast<VertexId>(tree_edges.size()) == n - 1,
          "best_one_respecting_cut: not a spanning tree");
  // Root the tree at 0; parent pointers via BFS over tree edges.
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> adj(n);
  for (EdgeId e : tree_edges) {
    adj[g.edge(e).u].push_back({g.edge(e).v, e});
    adj[g.edge(e).v].push_back({g.edge(e).u, e});
  }
  std::vector<VertexId> parent(n, kInvalidVertex), order;
  std::vector<char> seen(n, 0);
  order.push_back(0);
  seen[0] = 1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    VertexId v = order[i];
    for (auto [u, e] : adj[v])
      if (!seen[u]) {
        seen[u] = 1;
        parent[u] = v;
        order.push_back(u);
      }
  }
  require(order.size() == static_cast<std::size_t>(n),
          "best_one_respecting_cut: tree does not span");
  // depth for LCA-by-walking (fine at verification sizes).
  std::vector<int> depth(n, 0);
  for (std::size_t i = 1; i < order.size(); ++i)
    depth[order[i]] = depth[parent[order[i]]] + 1;
  auto lca = [&](VertexId x, VertexId y) {
    while (x != y) {
      if (depth[x] < depth[y])
        y = parent[y];
      else
        x = parent[x];
    }
    return x;
  };
  // contribution[v] = weighted degree; minus 2w at the LCA of each edge.
  std::vector<Weight> contrib(n, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    contrib[g.edge(e).u] += w[e];
    contrib[g.edge(e).v] += w[e];
    contrib[lca(g.edge(e).u, g.edge(e).v)] -= 2 * w[e];
  }
  // Subtree sums bottom-up; cut(subtree(v)) for v != root.
  std::vector<Weight> sub(contrib);
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    if (parent[*it] != kInvalidVertex) sub[parent[*it]] += sub[*it];
  sub[order[0]] = std::numeric_limits<Weight>::max();  // root keys no cut
  return sub;
}

Weight best_one_respecting_cut(const Graph& g, const std::vector<Weight>& w,
                               const std::vector<EdgeId>& tree_edges) {
  const std::vector<Weight> values =
      one_respecting_cut_values(g, w, tree_edges);
  return *std::min_element(values.begin(), values.end());
}

std::vector<Weight> two_respecting_cut_values(
    const Graph& g, const std::vector<Weight>& w,
    const std::vector<EdgeId>& tree_edges) {
  const VertexId n = g.num_vertices();
  require(static_cast<VertexId>(tree_edges.size()) == n - 1,
          "best_two_respecting_cut: not a spanning tree");
  // Root at 0, parents/depths via BFS over tree edges; tree edges are keyed
  // by their child vertex.
  std::vector<std::vector<VertexId>> adj(n);
  for (EdgeId e : tree_edges) {
    adj[g.edge(e).u].push_back(g.edge(e).v);
    adj[g.edge(e).v].push_back(g.edge(e).u);
  }
  std::vector<VertexId> parent(n, kInvalidVertex), order;
  std::vector<int> depth(n, 0);
  std::vector<char> seen(n, 0);
  order.push_back(0);
  seen[0] = 1;
  for (std::size_t i = 0; i < order.size(); ++i)
    for (VertexId u : adj[order[i]])
      if (!seen[u]) {
        seen[u] = 1;
        parent[u] = order[i];
        depth[u] = depth[order[i]] + 1;
        order.push_back(u);
      }
  require(order.size() == static_cast<std::size_t>(n),
          "best_two_respecting_cut: tree does not span");

  // Tree path of (x, y) as child-vertex edge keys.
  auto path_of = [&](VertexId x, VertexId y) {
    std::vector<VertexId> path;
    while (x != y) {
      if (depth[x] < depth[y]) std::swap(x, y);
      path.push_back(x);
      x = parent[x];
    }
    return path;
  };

  // cut(S_v) for every subtree via the 1-respecting machinery: contribution
  // wdeg - 2 * (weights of edges whose LCA is here), subtree-summed.
  std::vector<Weight> contrib(n, 0);
  // cross-pair accumulator: M[a][b] = total weight of graph edges whose tree
  // path contains both child-edges a and b.
  std::vector<std::vector<Weight>> both(n, std::vector<Weight>(n, 0));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    VertexId x = g.edge(e).u, y = g.edge(e).v;
    contrib[x] += w[e];
    contrib[y] += w[e];
    std::vector<VertexId> path = path_of(x, y);
    // LCA = the vertex where the two walks met; recompute for contrib.
    VertexId a = x, b = y;
    while (a != b) {
      if (depth[a] < depth[b]) std::swap(a, b);
      a = parent[a];
    }
    contrib[a] -= 2 * w[e];
    for (std::size_t i = 0; i < path.size(); ++i)
      for (std::size_t j = i + 1; j < path.size(); ++j) {
        both[path[i]][path[j]] += w[e];
        both[path[j]][path[i]] += w[e];
      }
  }
  std::vector<Weight> cut(contrib);
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    if (parent[*it] != kInvalidVertex) cut[parent[*it]] += cut[*it];

  // Per child-vertex candidate: min over single edges and pairs involving
  // it, cut(S_a Δ S_b) = cut(S_a) + cut(S_b) - 2 * both(a, b).
  std::vector<Weight> values(n, std::numeric_limits<Weight>::max());
  for (VertexId v = 0; v < n; ++v)
    if (parent[v] != kInvalidVertex) values[v] = cut[v];
  for (VertexId a = 0; a < n; ++a) {
    if (parent[a] == kInvalidVertex) continue;
    for (VertexId b = a + 1; b < n; ++b) {
      if (parent[b] == kInvalidVertex) continue;
      Weight candidate = cut[a] + cut[b] - 2 * both[a][b];
      if (candidate > 0) {
        values[a] = std::min(values[a], candidate);
        values[b] = std::min(values[b], candidate);
      }
    }
  }
  return values;
}

Weight best_two_respecting_cut(const Graph& g, const std::vector<Weight>& w,
                               const std::vector<EdgeId>& tree_edges) {
  const std::vector<Weight> values =
      two_respecting_cut_values(g, w, tree_edges);
  return *std::min_element(values.begin(), values.end());
}

MinCutPayload approx_min_cut(const MinCut& q, const ShortcutSource& source,
                             PhaseMeter& meter) {
  Simulator& sim = meter.sim();
  const Graph& g = sim.graph();
  const std::vector<Weight>& w = q.weights;
  require(static_cast<bool>(source), "approx_min_cut: no shortcut source");
  require(q.num_trees >= 1, "approx_min_cut: need >= 1 tree");

  // Greedy tree packing: load-scaled weights, one distributed MST per tree.
  std::vector<Weight> load(g.num_edges(), 0);
  MinCutPayload out;
  out.value = std::numeric_limits<Weight>::max();
  // Dissemination machinery for the per-tree cut minimum: the whole-network
  // partition, its shortcut, and the aggregator are identical for every
  // packing tree, so obtain them once. If it was built fresh, its charge is
  // the first dissemination's measured rounds (applied after that pass).
  Partition whole(std::vector<PartId>(g.num_vertices(), 0));
  SourcedShortcut whole_sc = source(g, whole);
  PartwiseAggregator whole_agg(g, whole, *whole_sc.shortcut);
  bool whole_charge_pending = whole_sc.fresh;
  PhaseMeter packing = meter.inner();
  for (int t = 0; t < q.num_trees; ++t) {
    meter.open_phase();
    std::vector<Weight> packing_weight(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      // Relative load: load/capacity, scaled to stay integral.
      packing_weight[e] = (load[e] << 20) / std::max<Weight>(w[e], 1);
    }
    const MstPayload mst = boruvka_mst(packing_weight, source, packing);
    for (EdgeId e : mst.edges) ++load[e];
    // Per-vertex candidate cuts (verifier-grade evaluation), then a REAL
    // part-wise min aggregation over the whole network on the source's
    // shortcut — the "one aggregation pass per tree", measured
    // round-by-round like every other distributed routine in src/congest.
    std::vector<Weight> cand = q.two_respecting
                                   ? two_respecting_cut_values(g, w, mst.edges)
                                   : one_respecting_cut_values(g, w, mst.edges);
    const Weight score = *std::min_element(cand.begin(), cand.end());
    std::vector<AggValue> init(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      init[v] = cand[v] == std::numeric_limits<Weight>::max()
                    ? AggValue{std::numeric_limits<std::int64_t>::max(),
                               std::numeric_limits<std::int32_t>::max()}
                    : AggValue{cand[v], v};  // the root keys no cut
    AggregationResult res = whole_agg.aggregate_min(sim, init);
    meter.aggregated();
    if (whole_charge_pending) {
      meter.charge(res.rounds);
      whole_charge_pending = false;
    }
    require(res.min_of_part[0].value == score,
            "approx_min_cut: disseminated cut disagrees with the verifier");
    out.value = std::min(out.value, score);
    ++out.trees;
    meter.close_phase("packing-tree");
  }
  return out;
}

}  // namespace mns::congest
