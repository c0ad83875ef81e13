#include "core/ldd.hpp"

#include <algorithm>
#include <utility>

namespace mns {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Geometric(beta) start delay for v, capped: count Bernoulli(beta) failures
/// over a per-(seed, v, trial) hash stream. Integer compare against a fixed
/// 32-bit threshold — the only floating-point step is the one-time threshold
/// conversion, so draws are platform-independent.
int geometric_delay(std::uint64_t seed, VertexId v, std::uint64_t threshold,
                    int cap) {
  int delay = 0;
  while (delay < cap) {
    const std::uint64_t h = splitmix64(
        seed ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) |
                (static_cast<std::uint64_t>(delay) << 32)));
    if ((h >> 32) < threshold) break;  // success: the delay expires here
    ++delay;
  }
  return delay;
}

/// ceil-ish log_{1/(1-beta)}(n) by repeated multiplication — the ball-radius
/// scale of the decomposition. Deterministic (a fixed sequence of IEEE
/// multiplies), no libm.
int delay_scale(VertexId n, double beta) {
  double mass = static_cast<double>(n < 1 ? 1 : n);
  const double keep = 1.0 - beta;
  int k = 0;
  while (mass >= 1.0 && k < 1 << 20) {
    mass *= keep;
    ++k;
  }
  return k;
}

}  // namespace

LddDecomposition ldd_decompose(const Graph& g, const LddOptions& options) {
  require(options.beta > 0.0 && options.beta < 1.0,
          "ldd_decompose: beta must be in (0, 1)");
  const VertexId n = g.num_vertices();
  require(n > 0, "ldd_decompose: empty graph");
  // Hard cap on the start delays, and thus on the cluster hop radius.
  const int cap = 2 * delay_scale(n, options.beta) + 8;
  const auto threshold =
      static_cast<std::uint64_t>(options.beta * 4294967296.0);  // beta * 2^32
  // Per MPX, LARGE delays start growing first: vertex v activates as a ball
  // center at time cap - delay(v) unless some earlier ball claimed it first.
  std::vector<std::vector<VertexId>> bucket(static_cast<std::size_t>(cap) + 1);
  for (VertexId v = 0; v < n; ++v) {
    const int d = geometric_delay(options.seed, v, threshold, cap);
    bucket[static_cast<std::size_t>(cap - d)].push_back(v);
  }

  std::vector<VertexId> owner(static_cast<std::size_t>(n), kInvalidVertex);
  std::vector<VertexId> parent(static_cast<std::size_t>(n), kInvalidVertex);
  std::vector<EdgeId> parent_edge(static_cast<std::size_t>(n), kInvalidEdge);
  std::vector<int> depth(static_cast<std::size_t>(n), 0);
  std::vector<VertexId> frontier, next;
  for (int t = 0; t <= cap || !frontier.empty(); ++t) {
    if (t <= cap)
      for (VertexId v : bucket[static_cast<std::size_t>(t)])
        if (owner[static_cast<std::size_t>(v)] == kInvalidVertex) {
          owner[static_cast<std::size_t>(v)] = v;
          frontier.push_back(v);
        }
    // Tie rule: among same-time claimants the smallest vertex id wins —
    // sorted frontier + sequential first-claim-sticks makes it so.
    std::sort(frontier.begin(), frontier.end());
    next.clear();
    for (VertexId v : frontier) {
      const std::span<const VertexId> nb = g.neighbors(v);
      const std::span<const EdgeId> ie = g.incident_edges(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        const VertexId u = nb[i];
        if (owner[static_cast<std::size_t>(u)] != kInvalidVertex) continue;
        owner[static_cast<std::size_t>(u)] = owner[static_cast<std::size_t>(v)];
        parent[static_cast<std::size_t>(u)] = v;
        parent_edge[static_cast<std::size_t>(u)] = ie[i];
        depth[static_cast<std::size_t>(u)] = depth[static_cast<std::size_t>(v)] + 1;
        next.push_back(u);
      }
    }
    frontier.swap(next);
  }

  // Dense cluster ids in increasing center-id order (canonical regardless of
  // discovery order).
  std::vector<VertexId> centers;
  for (VertexId v = 0; v < n; ++v)
    if (owner[static_cast<std::size_t>(v)] == v) centers.push_back(v);
  std::vector<PartId> index_of(static_cast<std::size_t>(n), kNoPart);
  for (std::size_t i = 0; i < centers.size(); ++i)
    index_of[static_cast<std::size_t>(centers[i])] = static_cast<PartId>(i);
  std::vector<PartId> part_of(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v)
    part_of[static_cast<std::size_t>(v)] =
        index_of[static_cast<std::size_t>(owner[static_cast<std::size_t>(v)])];

  int radius = 0;
  for (int d : depth) radius = std::max(radius, d);
  EdgeId cut = 0;
  for (const Edge& e : g.edges())
    if (part_of[static_cast<std::size_t>(e.u)] !=
        part_of[static_cast<std::size_t>(e.v)])
      ++cut;

  return LddDecomposition{Partition(std::move(part_of)),
                          std::move(centers),
                          std::move(parent),
                          std::move(parent_edge),
                          std::move(depth),
                          radius,
                          cut};
}

std::vector<Weight> ldd_forest_distances(const LddDecomposition& ldd,
                                         const Graph& g,
                                         const std::vector<Weight>& w) {
  const VertexId n = g.num_vertices();
  require(static_cast<VertexId>(ldd.parent.size()) == n,
          "ldd_forest_distances: decomposition size mismatch");
  require(static_cast<EdgeId>(w.size()) == g.num_edges(),
          "ldd_forest_distances: weight size mismatch");
  // Settle in increasing depth order so every parent is final before its
  // children (counting sort: depths are bounded by the radius).
  std::vector<std::vector<VertexId>> by_depth(
      static_cast<std::size_t>(ldd.radius) + 1);
  for (VertexId v = 0; v < n; ++v)
    by_depth[static_cast<std::size_t>(ldd.depth[static_cast<std::size_t>(v)])]
        .push_back(v);
  std::vector<Weight> dist(static_cast<std::size_t>(n), 0);
  for (const std::vector<VertexId>& layer : by_depth)
    for (VertexId v : layer) {
      const VertexId p = ldd.parent[static_cast<std::size_t>(v)];
      if (p == kInvalidVertex) continue;  // a center
      dist[static_cast<std::size_t>(v)] =
          dist[static_cast<std::size_t>(p)] +
          w[static_cast<std::size_t>(ldd.parent_edge[static_cast<std::size_t>(v)])];
    }
  return dist;
}

std::string validate_ldd(const Graph& g, const LddDecomposition& ldd) {
  const VertexId n = g.num_vertices();
  const auto sz = static_cast<std::size_t>(n);
  if (ldd.parent.size() != sz || ldd.parent_edge.size() != sz ||
      ldd.depth.size() != sz)
    return "forest arrays sized differently from the graph";
  if (static_cast<std::size_t>(ldd.parts.num_parts()) != ldd.center.size())
    return "center list does not match the part count";
  if (std::string err = ldd.parts.validate(g); !err.empty()) return err;
  int radius = 0;
  EdgeId cut = 0;
  for (VertexId v = 0; v < n; ++v) {
    const PartId p = ldd.parts.part_of(v);
    if (p == kNoPart) return "vertex without a cluster";
    const VertexId c = ldd.center[static_cast<std::size_t>(p)];
    const VertexId par = ldd.parent[static_cast<std::size_t>(v)];
    if (v == c) {
      if (par != kInvalidVertex || ldd.depth[static_cast<std::size_t>(v)] != 0)
        return "center with a parent or nonzero depth";
      continue;
    }
    if (par == kInvalidVertex) return "non-center without a parent";
    if (ldd.parts.part_of(par) != p) return "parent in a different cluster";
    if (ldd.depth[static_cast<std::size_t>(v)] !=
        ldd.depth[static_cast<std::size_t>(par)] + 1)
      return "depth not parent depth + 1";
    const EdgeId e = ldd.parent_edge[static_cast<std::size_t>(v)];
    if (e < 0 || e >= g.num_edges() || g.other_endpoint(e, v) != par)
      return "parent edge does not join vertex and parent";
    radius = std::max(radius, ldd.depth[static_cast<std::size_t>(v)]);
  }
  for (const Edge& e : g.edges())
    if (ldd.parts.part_of(e.u) != ldd.parts.part_of(e.v)) ++cut;
  if (radius != ldd.radius) return "radius does not match max depth";
  if (cut != ldd.cut_edges) return "cut edge count mismatch";
  return "";
}

}  // namespace mns
