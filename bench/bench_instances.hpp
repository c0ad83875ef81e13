// Shared adversarial instances for the workload harnesses (bench_rounds,
// bench_session, bench_scale). Each builder produces a small-diameter network
// of one certificate family together with weights whose cheap routes are
// LONG — the D << shortest-path-hops / snake-fragment regime the paper's
// theorems speak to, where shortcuts are essential.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/certificate.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "structure/clique_sum.hpp"
#include "structure/tree_decomposition.hpp"

namespace mns::bench {

/// The paper's motivating instance (§1): rows x cols grid + apex attached to
/// every other node (diameter ~4); the lightest edges trace the serpentine
/// so Boruvka fragments become snakes.
struct GridApexInstance {
  Graph graph;
  std::vector<Weight> weights;
  std::vector<VertexId> apices;
};

inline GridApexInstance grid_apex_instance(int rows, int cols, unsigned seed) {
  EmbeddedGraph eg = gen::grid(rows, cols);
  const VertexId grid_n = eg.graph().num_vertices();
  GraphBuilder b(grid_n + 1);
  for (EdgeId e = 0; e < eg.graph().num_edges(); ++e)
    b.add_edge(eg.graph().edge(e).u, eg.graph().edge(e).v);
  for (VertexId v = 0; v < grid_n; v += 2) b.add_edge(grid_n, v);
  GridApexInstance inst;
  inst.graph = b.build();
  inst.apices = {grid_n};
  auto id = [&](int r, int c) { return static_cast<VertexId>(r * cols + c); };
  std::vector<char> on_path(inst.graph.num_edges(), 0);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c + 1 < cols; ++c)
      on_path[inst.graph.find_edge(id(r, c), id(r, c + 1))] = 1;
    if (r + 1 < rows) {
      int turn = (r % 2 == 0) ? cols - 1 : 0;
      on_path[inst.graph.find_edge(id(r, turn), id(r + 1, turn))] = 1;
    }
  }
  std::vector<Weight> light;
  for (Weight x = 1; x <= grid_n; ++x) light.push_back(x);
  Rng rng(seed);
  std::shuffle(light.begin(), light.end(), rng);
  std::size_t li = 0;
  Weight heavy = 10 * static_cast<Weight>(inst.graph.num_vertices());
  inst.weights.assign(inst.graph.num_edges(), 0);
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e)
    inst.weights[e] = on_path[e] ? light[li++] : heavy++;
  return inst;
}

/// Adversarial weights: a DFS spanning tree (deep by construction) gets the
/// light weights 1..n-1 shuffled; every non-tree edge is heavier than any
/// all-light path, so the shortest-path forest IS the deep DFS tree.
inline std::vector<Weight> dfs_light_weights(const Graph& g, Rng& rng) {
  const VertexId n = g.num_vertices();
  std::vector<char> seen(n, 0);
  std::vector<char> on_tree(g.num_edges(), 0);
  // True DFS (visited at POP time, so the tree is deep, not BFS-bushy):
  // the tree edge of a vertex is the edge it was discovered through.
  std::vector<std::pair<VertexId, EdgeId>> stack{{0, kInvalidEdge}};
  VertexId tree_edges = 0;
  while (!stack.empty()) {
    auto [v, via] = stack.back();
    stack.pop_back();
    if (seen[v]) continue;
    seen[v] = 1;
    if (via != kInvalidEdge) {
      on_tree[via] = 1;
      ++tree_edges;
    }
    auto nbrs = g.neighbors(v);
    auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      if (!seen[nbrs[i]]) stack.push_back({nbrs[i], eids[i]});
  }
  std::vector<Weight> light(tree_edges);
  for (VertexId i = 0; i < tree_edges; ++i) light[i] = i + 1;
  std::shuffle(light.begin(), light.end(), rng);
  std::size_t li = 0;
  Weight heavy = 10 * static_cast<Weight>(n) * static_cast<Weight>(n);
  std::vector<Weight> w(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    w[e] = on_tree[e] ? light[li++] : heavy++;
  return w;
}

/// Uniform-random weights: the shuffled ranks 1..m. Distinct values, so the
/// MST is unique and Kruskal-verifiable; relative order is that of i.i.d.
/// uniform draws. Unlike dfs_light_weights nothing is planted — this is the
/// CAPACITY regime (bench_scale): message volume reflects the family's own
/// structure, not an adversarial weight pattern (which at n = 2^20 would
/// multiply traffic ~4x without changing what the scale gate measures).
inline std::vector<Weight> uniform_weights(const Graph& g, Rng& rng) {
  std::vector<Weight> w(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    w[static_cast<std::size_t>(e)] = e + 1;
  std::shuffle(w.begin(), w.end(), rng);
  return w;
}

/// The treewidth pathology (the wheel example generalized): a "k-path" band
/// (vertex i adjacent to i-1..i-k) PLUS a universal hub, recorded with its
/// width-(k+1) path decomposition (the hub joins every bag). Diameter 2 via
/// the hub, but the cheap route is the n-hop band spine — exactly the
/// D << shortest-path-hops regime where Theorem 5 shortcuts pay off.
struct HubbedKPath {
  Graph graph;
  TreeDecomposition decomposition;
};

inline HubbedKPath hubbed_kpath(VertexId n, VertexId k) {
  GraphBuilder b(n + 1);
  const VertexId hub = n;
  for (VertexId v = 1; v < n; ++v)
    for (VertexId back = 1; back <= std::min(k, v); ++back)
      b.add_edge(v - back, v);
  for (VertexId v = 0; v < n; ++v) b.add_edge(v, hub);
  std::vector<std::vector<VertexId>> bags;
  std::vector<BagId> parent;
  for (VertexId i = 0; i + k < n; ++i) {
    std::vector<VertexId> bag;
    for (VertexId j = i; j <= i + k; ++j) bag.push_back(j);
    bag.push_back(hub);
    bags.push_back(std::move(bag));
    parent.push_back(static_cast<BagId>(i) - 1);
  }
  return {b.build(), TreeDecomposition(std::move(bags), std::move(parent))};
}

/// Serpentine weights for hubbed_kpath: the band spine 0-1-2-...-(n-1)
/// carries the shuffled light weights, everything else (including every hub
/// edge) is heavier than any all-light route.
inline std::vector<Weight> spine_light_weights(const Graph& g,
                                               VertexId spine_len, Rng& rng) {
  std::vector<Weight> light(spine_len - 1);
  for (VertexId i = 0; i + 1 < spine_len; ++i) light[i] = i + 1;
  std::shuffle(light.begin(), light.end(), rng);
  Weight heavy = 10 * static_cast<Weight>(g.num_vertices()) *
                 static_cast<Weight>(g.num_vertices());
  std::vector<Weight> w(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    w[e] = (ed.v == ed.u + 1 && ed.v < spine_len) ? light[ed.u] : heavy++;
  }
  return w;
}

/// The clique-sum pathology (Theorem 6 shape): a CHAIN of apexed grid bags,
/// consecutive bags identified at one vertex where their serpentines meet,
/// so the per-bag boustrophedon routes concatenate into one n-hop cheap
/// route, while every bag's universal apex keeps the hop diameter at
/// ~2 hops per bag. Driven through the full clique-sum + Lemma 9 pipeline
/// (apex_aware + bag_apices).
struct ApexChain {
  Graph graph;
  CliqueSumDecomposition decomposition;
  std::vector<std::vector<VertexId>> bag_apices;
  std::vector<Weight> weights;
};

inline ApexChain apexed_chain_cliquesum(int bags, Rng& rng) {
  const int rows = 16, cols = 16;
  const VertexId per = rows * cols;
  const EmbeddedGraph cell_embedded = gen::grid(rows, cols);
  const Graph& cell = cell_embedded.graph();
  // Boustrophedon order of local grid ids; bag i's snake START (0,0) is
  // identified with bag i-1's snake END.
  std::vector<VertexId> snake;
  for (int r = 0; r < rows; ++r) {
    if (r % 2 == 0)
      for (int c = 0; c < cols; ++c)
        snake.push_back(static_cast<VertexId>(r * cols + c));
    else
      for (int c = cols - 1; c >= 0; --c)
        snake.push_back(static_cast<VertexId>(r * cols + c));
  }
  std::vector<std::vector<VertexId>> to_global(
      static_cast<std::size_t>(bags), std::vector<VertexId>(per));
  VertexId next = 0;
  for (int b = 0; b < bags; ++b)
    for (VertexId l = 0; l < per; ++l) {
      if (b > 0 && l == snake.front())
        to_global[b][l] = to_global[b - 1][snake.back()];
      else
        to_global[b][l] = next++;
    }
  std::vector<VertexId> apex(bags);
  for (int b = 0; b < bags; ++b) apex[b] = next++;
  GraphBuilder gb(next);
  for (int b = 0; b < bags; ++b) {
    for (EdgeId e = 0; e < cell.num_edges(); ++e)
      gb.add_edge(to_global[b][cell.edge(e).u], to_global[b][cell.edge(e).v]);
    for (VertexId l = 0; l < per; ++l) gb.add_edge(apex[b], to_global[b][l]);
  }
  Graph g = gb.build();

  std::vector<std::vector<VertexId>> bag_vertices(
      static_cast<std::size_t>(bags));
  std::vector<std::vector<EdgeId>> bag_edges(static_cast<std::size_t>(bags));
  std::vector<BagId> parent(static_cast<std::size_t>(bags));
  std::vector<std::vector<VertexId>> parent_clique(
      static_cast<std::size_t>(bags));
  std::vector<std::vector<VertexId>> bag_apices(
      static_cast<std::size_t>(bags));
  for (int b = 0; b < bags; ++b) {
    for (VertexId l = 0; l < per; ++l)
      bag_vertices[b].push_back(to_global[b][l]);
    bag_vertices[b].push_back(apex[b]);
    bag_apices[b] = {apex[b]};
    for (EdgeId e = 0; e < cell.num_edges(); ++e)
      bag_edges[b].push_back(g.find_edge(to_global[b][cell.edge(e).u],
                                         to_global[b][cell.edge(e).v]));
    for (VertexId l = 0; l < per; ++l)
      bag_edges[b].push_back(g.find_edge(apex[b], to_global[b][l]));
    parent[b] = static_cast<BagId>(b) - 1;
    if (b > 0) parent_clique[b] = {to_global[b][snake.front()]};
  }

  // One continuous light route through every bag's serpentine.
  std::vector<char> on_route(g.num_edges(), 0);
  VertexId route_len = 0;
  for (int b = 0; b < bags; ++b)
    for (std::size_t i = 0; i + 1 < snake.size(); ++i) {
      EdgeId e =
          g.find_edge(to_global[b][snake[i]], to_global[b][snake[i + 1]]);
      if (!on_route[e]) {
        on_route[e] = 1;
        ++route_len;
      }
    }
  std::vector<Weight> light(route_len);
  for (VertexId i = 0; i < route_len; ++i) light[i] = i + 1;
  std::shuffle(light.begin(), light.end(), rng);
  std::size_t li = 0;
  Weight heavy = 10 * static_cast<Weight>(g.num_vertices()) *
                 static_cast<Weight>(g.num_vertices());
  std::vector<Weight> w(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    w[e] = on_route[e] ? light[li++] : heavy++;

  return ApexChain{std::move(g),
                   CliqueSumDecomposition(std::move(bag_vertices),
                                          std::move(bag_edges),
                                          std::move(parent),
                                          std::move(parent_clique)),
                   std::move(bag_apices), std::move(w)};
}

/// The certificate of an ApexChain: the full Theorem 6 pipeline (clique-sum
/// folding + Lemma 9 apex-aware local oracles).
inline StructuralCertificate apex_chain_certificate(const ApexChain& chain) {
  CliqueSumCertificate cert{chain.decomposition};
  cert.apex_aware = true;
  cert.bag_apices = chain.bag_apices;
  return cert;
}

}  // namespace mns::bench
