// The shared instances of the workload benches (bench_rounds' E15,
// bench_sessions, bench_scale) and of `mnsctl gen`, and the one definition
// of the long-cell SSSP parameters and of the (1+eps) check against
// Dijkstra they all use. Each instance function produces a small-diameter
// network of one certificate family together with weights whose cheap
// routes are LONG — the D << shortest-path-hops / snake-fragment regime the
// paper's theorems speak to, where shortcuts are essential.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "congest/workload.hpp"
#include "core/certificate.hpp"
#include "gen/apex.hpp"
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

// ------------------------------------------------------------------------
// The four adversarial families.

/// A network of one certificate family with its adversarial weights.
struct FamilyInstance {
  std::string family;
  Graph graph;
  std::vector<Weight> weights;
  StructuralCertificate cert;
};

/// The four families, each keyed by one size: planar (grid side; greedy
/// certificate), treewidth (spine length of a hubbed 3-path, with its path
/// decomposition), apex (side of a grid with one satellite apex attached to
/// ~10% of it; Lemma 9 certificate) and cliquesum (bags of an apexed grid
/// chain; Theorem 6 pipeline). The generator is seeded from the size
/// (100 + side for apex) unless `seed` overrides it, so a bench row and an
/// `mnsctl gen` snapshot of one family and size are the same network. A
/// size <= 0 selects the family's smallest benched size (16, 256, 16, 4):
/// the smoke instance of E15-E17 and mnsctl gen's default.
inline FamilyInstance family_instance(const std::string& family, int size,
                                      std::optional<unsigned> seed = {}) {
  FamilyInstance out;
  out.family = family;
  if (family == "planar") {
    if (size <= 0) size = 16;
    Rng rng(seed.value_or(static_cast<unsigned>(size)));
    // grid_graph streams edges straight into the GraphBuilder (no embedding
    // rotations materialized): the graph of gen::grid, half the peak.
    out.graph = gen::grid_graph(size, size);
    out.weights = dfs_light_weights(out.graph, rng);
    out.cert = greedy_certificate();
  } else if (family == "treewidth") {
    if (size <= 0) size = 256;
    Rng rng(seed.value_or(static_cast<unsigned>(size)));
    HubbedKPath kt = hubbed_kpath(size, 3);
    out.graph = std::move(kt.graph);
    out.weights = spine_light_weights(out.graph, size, rng);
    out.cert = treewidth_certificate(std::move(kt.decomposition));
  } else if (family == "apex") {
    if (size <= 0) size = 16;
    Rng rng(seed.value_or(static_cast<unsigned>(100 + size)));
    gen::ApexResult ar =
        gen::add_apices(gen::grid_graph(size, size), 1, 0.10, rng);
    out.graph = std::move(ar.graph);
    out.weights = dfs_light_weights(out.graph, rng);
    out.cert = apex_certificate(ar.apices);
  } else if (family == "cliquesum") {
    if (size <= 0) size = 4;
    Rng rng(seed.value_or(static_cast<unsigned>(size)));
    ApexChain chain = apexed_chain_cliquesum(size, rng);
    out.cert = apex_chain_certificate(chain);
    out.graph = std::move(chain.graph);
    out.weights = std::move(chain.weights);
  } else {
    throw std::invalid_argument("unknown family '" + family +
                                "' (planar|treewidth|apex|cliquesum)");
  }
  return out;
}

/// The families at the given sizes, in the order planar, treewidth, apex,
/// cliquesum, each family's sizes in the order given. A smoke run keeps
/// only each family's first size.
inline std::vector<FamilyInstance> family_instances(
    const std::vector<int>& planar, const std::vector<int>& treewidth,
    const std::vector<int>& apex, const std::vector<int>& cliquesum,
    bool smoke = false) {
  std::vector<FamilyInstance> out;
  for (const auto& [family, sizes] :
       {std::pair{"planar", &planar}, {"treewidth", &treewidth},
        {"apex", &apex}, {"cliquesum", &cliquesum}})
    for (std::size_t i = 0; i < (smoke ? 1 : sizes->size()); ++i)
      out.push_back(family_instance(family, (*sizes)[i]));
  return out;
}

// ------------------------------------------------------------------------
// (1+eps) SSSP: the long-cell parameters and the check against Dijkstra.

/// The slack of every (1+eps) SSSP row.
inline constexpr double kSsspEpsilon = 0.25;

/// The long-cell (1+eps) SSSP parameters, on a congest::ApproxSssp or a
/// congest::WorkloadParams over n vertices: eps = kSsspEpsilon, and
/// max(8, floor(sqrt n)/8) Voronoi seeds, so cells span several
/// jump-costs' worth of hops and pay for their aggregations. The uniform
/// seed spread covers the whole network from the start, so repartition
/// growth 1.0 keeps one partition phase (the uncovered-wavefront trigger
/// still guards the pathological case). The cells are source-independent,
/// so a k-source batch reuses one partition's shortcut from the cache.
template <class Query>
Query long_cells(Query q, VertexId n) {
  q.epsilon = kSsspEpsilon;
  q.num_seeds = std::max<VertexId>(
      8, static_cast<VertexId>(std::sqrt(static_cast<double>(n))) / 8);
  q.repartition_growth = 1.0;
  q.wavefront_seeds = false;
  return q;
}

/// The parameter set of every `mnsctl` run and of the session benches'
/// by-name solves: the long cells, whose source-independence makes a warmed
/// snapshot's partitions the ones a later solve asks for, and 6 packing
/// trees for min-cut.
inline congest::WorkloadParams workload_params(const Graph& g,
                                               std::vector<Weight> weights) {
  congest::WorkloadParams p;
  p.weights = std::move(weights);
  p.num_trees = 6;
  return long_cells(std::move(p), g.num_vertices());
}

/// A (1+eps) SSSP answer checked against Dijkstra from the same source.
struct ApproxCheck {
  bool ok = true;          ///< every reached vertex within [d, (1+eps) d]
  double max_ratio = 1.0;  ///< largest dist/d over vertices with d > 0
};

inline ApproxCheck check_approx_sssp(const Graph& g,
                                     const std::vector<Weight>& w,
                                     VertexId source,
                                     const std::vector<Weight>& dist,
                                     double eps = kSsspEpsilon) {
  const std::vector<Weight> exact = dijkstra(g, w, source).dist;
  ApproxCheck c;
  for (std::size_t v = 0; v < exact.size(); ++v) {
    if (exact[v] == kUnreachedWeight) continue;
    const double d = static_cast<double>(exact[v]);
    const double got = static_cast<double>(dist[v]);
    if (dist[v] < exact[v] || got > (1.0 + eps + 1e-9) * d) c.ok = false;
    if (exact[v] > 0) c.max_ratio = std::max(c.max_ratio, got / d);
  }
  return c;
}

}  // namespace mns::bench
