#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <stdexcept>
#include <tuple>

namespace mns {

int BfsResult::max_distance() const {
  int best = 0;
  for (int d : dist)
    if (d != kUnreached) best = std::max(best, d);
  return best;
}

BfsResult bfs(const Graph& g, VertexId source) {
  return bfs_multi(g, std::span<const VertexId>(&source, 1));
}

BfsResult bfs_multi(const Graph& g, std::span<const VertexId> sources) {
  const VertexId n = g.num_vertices();
  BfsResult r;
  r.dist.assign(n, kUnreached);
  r.parent.assign(n, kInvalidVertex);
  r.parent_edge.assign(n, kInvalidEdge);
  r.source.assign(n, kInvalidVertex);

  std::deque<VertexId> queue;
  for (VertexId s : sources) {
    if (s < 0 || s >= n) throw std::invalid_argument("bfs: source out of range");
    if (r.dist[s] == 0) continue;  // duplicate source
    r.dist[s] = 0;
    r.source[s] = s;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    auto nbrs = g.neighbors(v);
    auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      VertexId w = nbrs[i];
      if (r.dist[w] != kUnreached) continue;
      r.dist[w] = r.dist[v] + 1;
      r.parent[w] = v;
      r.parent_edge[w] = eids[i];
      r.source[w] = r.source[v];
      queue.push_back(w);
    }
  }
  return r;
}

int ShortestPathResult::max_hops() const {
  int best = 0;
  for (int h : hops)
    if (h != kUnreached) best = std::max(best, h);
  return best;
}

ShortestPathResult dijkstra(const Graph& g, const std::vector<Weight>& w,
                            VertexId source) {
  return dijkstra_multi(g, w, std::span<const VertexId>(&source, 1));
}

ShortestPathResult dijkstra_multi(const Graph& g, const std::vector<Weight>& w,
                                  std::span<const VertexId> sources,
                                  int hop_cap) {
  const VertexId n = g.num_vertices();
  if (static_cast<EdgeId>(w.size()) != g.num_edges())
    throw std::invalid_argument("dijkstra: weight size mismatch");
  for (Weight x : w)
    if (x < 0) throw std::invalid_argument("dijkstra: negative weight");

  ShortestPathResult r;
  r.dist.assign(n, kUnreachedWeight);
  r.parent.assign(n, kInvalidVertex);
  r.parent_edge.assign(n, kInvalidEdge);
  r.source.assign(n, kInvalidVertex);
  r.hops.assign(n, kUnreached);

  // (distance, owning source, vertex): the source in the key makes the
  // tie-break deterministic, so weighted Voronoi cells are well defined.
  using Entry = std::tuple<Weight, VertexId, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  for (VertexId s : sources) {
    if (s < 0 || s >= n)
      throw std::invalid_argument("dijkstra: source out of range");
    if (r.dist[s] == 0) continue;  // duplicate source
    r.dist[s] = 0;
    r.source[s] = s;
    r.hops[s] = 0;
    pq.push({0, s, s});
  }
  std::vector<char> settled(n, 0);
  while (!pq.empty()) {
    auto [d, owner, v] = pq.top();
    pq.pop();
    if (settled[v]) continue;
    settled[v] = 1;
    // r.hops[v] is final here (relaxations only come from settled vertices).
    if (hop_cap >= 0 && r.hops[v] >= hop_cap) continue;
    auto nbrs = g.neighbors(v);
    auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      VertexId u = nbrs[i];
      if (settled[u]) continue;
      Weight cand = d + w[eids[i]];
      if (cand < r.dist[u] ||
          (cand == r.dist[u] && r.source[u] != kInvalidVertex &&
           owner < r.source[u])) {
        r.dist[u] = cand;
        r.parent[u] = v;
        r.parent_edge[u] = eids[i];
        r.source[u] = owner;
        r.hops[u] = r.hops[v] + 1;
        pq.push({cand, owner, u});
      }
    }
  }
  if (hop_cap >= 0)
    for (VertexId v = 0; v < n; ++v)
      if (!settled[v]) {  // tentative labels beyond the cap are discarded
        r.dist[v] = kUnreachedWeight;
        r.parent[v] = kInvalidVertex;
        r.parent_edge[v] = kInvalidEdge;
        r.source[v] = kInvalidVertex;
        r.hops[v] = kUnreached;
      }
  return r;
}

Components connected_components(const Graph& g) {
  const VertexId n = g.num_vertices();
  Components c;
  c.label.assign(n, kInvalidVertex);
  for (VertexId s = 0; s < n; ++s) {
    if (c.label[s] != kInvalidVertex) continue;
    std::vector<VertexId> stack{s};
    c.label[s] = c.count;
    while (!stack.empty()) {
      VertexId v = stack.back();
      stack.pop_back();
      for (VertexId w : g.neighbors(v)) {
        if (c.label[w] == kInvalidVertex) {
          c.label[w] = c.count;
          stack.push_back(w);
        }
      }
    }
    ++c.count;
  }
  return c;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  return connected_components(g).count == 1;
}

bool is_connected_subset(const Graph& g, std::span<const VertexId> subset) {
  if (subset.empty()) return true;
  std::vector<char> in_subset(g.num_vertices(), 0);
  for (VertexId v : subset) {
    if (v < 0 || v >= g.num_vertices())
      throw std::invalid_argument("is_connected_subset: vertex out of range");
    in_subset[v] = 1;
  }
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<VertexId> stack{subset[0]};
  seen[subset[0]] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    for (VertexId w : g.neighbors(v)) {
      if (in_subset[w] && !seen[w]) {
        seen[w] = 1;
        ++visited;
        stack.push_back(w);
      }
    }
  }
  std::size_t distinct = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) distinct += in_subset[v];
  return visited == distinct;
}

int eccentricity(const Graph& g, VertexId v) {
  BfsResult r = bfs(g, v);
  for (VertexId w = 0; w < g.num_vertices(); ++w)
    if (!r.reached(w))
      throw std::invalid_argument("eccentricity: graph is disconnected");
  return r.max_distance();
}

int diameter_exact(const Graph& g) {
  int best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    best = std::max(best, eccentricity(g, v));
  return best;
}

VertexId approximate_center(const Graph& g, Rng& rng) {
  if (g.num_vertices() == 0)
    throw std::invalid_argument("approximate_center: empty graph");
  std::uniform_int_distribution<VertexId> pick(0, g.num_vertices() - 1);
  BfsResult a = bfs(g, pick(rng));
  VertexId u = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (a.dist[v] != kUnreached && a.dist[v] > a.dist[u]) u = v;
  BfsResult b = bfs(g, u);
  VertexId w = u;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (b.dist[v] != kUnreached && b.dist[v] > b.dist[w]) w = v;
  // Walk half-way back from w toward u along BFS parents.
  int steps = b.dist[w] / 2;
  VertexId mid = w;
  for (int i = 0; i < steps && b.parent[mid] != kInvalidVertex; ++i)
    mid = b.parent[mid];
  return mid;
}

InducedSubgraph induced_subgraph(const Graph& g,
                                 std::span<const VertexId> vertices) {
  InducedSubgraph s;
  s.to_parent.assign(vertices.begin(), vertices.end());
  std::sort(s.to_parent.begin(), s.to_parent.end());
  s.to_parent.erase(std::unique(s.to_parent.begin(), s.to_parent.end()),
                    s.to_parent.end());
  s.to_local.assign(g.num_vertices(), kInvalidVertex);
  for (VertexId i = 0; i < static_cast<VertexId>(s.to_parent.size()); ++i) {
    VertexId p = s.to_parent[i];
    if (p < 0 || p >= g.num_vertices())
      throw std::invalid_argument("induced_subgraph: vertex out of range");
    s.to_local[p] = i;
  }
  GraphBuilder builder(static_cast<VertexId>(s.to_parent.size()));
  std::vector<EdgeId> kept;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    if (s.to_local[ed.u] != kInvalidVertex &&
        s.to_local[ed.v] != kInvalidVertex) {
      builder.add_edge(s.to_local[ed.u], s.to_local[ed.v]);
      kept.push_back(e);
    }
  }
  s.graph = builder.build();
  // GraphBuilder sorts edges by normalized endpoints; replicate that order to
  // map local edge ids back to parent edge ids.
  std::sort(kept.begin(), kept.end(), [&](EdgeId a, EdgeId b) {
    auto key = [&](EdgeId e) {
      VertexId lu = s.to_local[g.edge(e).u];
      VertexId lv = s.to_local[g.edge(e).v];
      if (lu > lv) std::swap(lu, lv);
      return std::pair(lu, lv);
    };
    return key(a) < key(b);
  });
  s.edge_to_parent = std::move(kept);
  return s;
}

}  // namespace mns
