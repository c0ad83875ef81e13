#include "congest/sssp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "congest/aggregation.hpp"
#include "congest/vertex_program.hpp"

namespace mns::congest {

namespace {

constexpr AggValue kNoValue{std::numeric_limits<std::int64_t>::max(),
                            std::numeric_limits<std::int32_t>::max()};

/// Bellman-Ford rounds between consecutive cluster jumps: the floor of
/// approx_sssp's adaptive burst budget.
constexpr int kBfRoundsPerCycle = 8;

/// Event-driven lock-step Bellman-Ford as a VertexProgram: frontier nodes
/// re-broadcast their estimate to every neighbour but the one across
/// via[v]; receivers relax (v-local writes only) and queue newly woken
/// nodes in per-shard lists. Doubles as exact_sssp's whole run (unbounded
/// budget) and approx_sssp's bounded bursts (the program survives across
/// bursts; frontier/in_frontier/dist live with the caller because cluster
/// jumps mutate them between bursts). The optional reached/part-dirty hooks
/// are approx-only cross-vertex effects, funneled through PerShard
/// accumulators and merged at the barrier.
struct BellmanFordProgram {
  const Graph& g;
  const std::vector<Weight>& w;
  std::vector<Weight>& dist;
  std::vector<char>& in_frontier;
  std::vector<VertexId>& frontier_list;
  /// The edge whose delivery last set dist[v], kInvalidEdge if none. The
  /// neighbour across it sent dist[v] - w(e) and its estimate only falls,
  /// so sending dist[v] back cannot relax it. Any other write to dist[v]
  /// must reset it (approx_sssp's jump_relax).
  std::vector<EdgeId> via;
  /// The estimate v last broadcast, kUnreachedWeight before its first send.
  /// Never below dist[v]; approx_sssp's jump filter reads it.
  std::vector<Weight> sent;
  // approx-only hooks; null for exact_sssp.
  long long* reached = nullptr;
  const Partition* const* parts = nullptr;  ///< current phase partition slot
  std::vector<char>* part_dirty = nullptr;

  long long budget = 0;  ///< rounds left in the current burst
  PerShard<std::vector<VertexId>> next;
  PerShard<long long> reached_delta;
  PerShard<std::vector<PartId>> woken_parts;

  BellmanFordProgram(Simulator& sim, const std::vector<Weight>& weights,
                     std::vector<Weight>& d, std::vector<char>& inf,
                     std::vector<VertexId>& fl)
      : g(sim.graph()), w(weights), dist(d), in_frontier(inf),
        frontier_list(fl),
        via(static_cast<std::size_t>(sim.graph().num_vertices()),
            kInvalidEdge),
        sent(static_cast<std::size_t>(sim.graph().num_vertices()),
             kUnreachedWeight),
        next(sim.num_shards()),
        reached_delta(sim.num_shards()), woken_parts(sim.num_shards()) {}

  [[nodiscard]] std::span<const VertexId> frontier() const {
    // An exhausted budget hides (but keeps) the frontier: the next burst or
    // a cluster jump picks it back up.
    return budget > 0 ? std::span<const VertexId>(frontier_list)
                      : std::span<const VertexId>();
  }

  void send(VertexId v, VertexSender& out) {
    const std::size_t vi = static_cast<std::size_t>(v);
    in_frontier[vi] = 0;
    sent[vi] = dist[vi];
    for (EdgeId e : g.incident_edges(v))
      if (e != via[vi]) out.send(e, Message{0, 0, dist[vi]});
  }

  void receive(VertexId v, Inbox inbox,
               const ShardContext& ctx) {
    for (const Delivery& d : inbox) {
      const Weight cand = d.msg.value + w[static_cast<std::size_t>(d.edge)];
      if (cand >= dist[static_cast<std::size_t>(v)]) continue;
      if (reached != nullptr &&
          dist[static_cast<std::size_t>(v)] == kUnreachedWeight)
        ++reached_delta[ctx.shard];
      dist[static_cast<std::size_t>(v)] = cand;
      via[static_cast<std::size_t>(v)] = d.edge;
      if (parts != nullptr && *parts != nullptr) {
        const PartId p = (*parts)->part_of(v);
        if (p != kNoPart) woken_parts[ctx.shard].push_back(p);
      }
      // A vertex whose only edge is via[v] would send nothing: not queued.
      if (!in_frontier[static_cast<std::size_t>(v)] && g.degree(v) > 1) {
        in_frontier[static_cast<std::size_t>(v)] = 1;
        next[ctx.shard].push_back(v);
      }
    }
  }

  void end_round() {
    --budget;
    frontier_list.clear();
    next.for_each([&](std::vector<VertexId>& part) {
      frontier_list.insert(frontier_list.end(), part.begin(), part.end());
      part.clear();
    });
    reached_delta.for_each([&](long long& delta) {
      if (reached != nullptr) *reached += delta;
      delta = 0;
    });
    woken_parts.for_each([&](std::vector<PartId>& ids) {
      if (part_dirty != nullptr)
        for (PartId p : ids) (*part_dirty)[static_cast<std::size_t>(p)] = 1;
      ids.clear();
    });
  }
};

/// Hop-capped weighted Voronoi cells around the seeds: a thin wrapper over
/// dijkstra_multi's hop cap. Everything beyond the cap stays unowned; the
/// forest's hop depth is what approx_sssp charges per phase.
struct CappedVoronoi {
  std::vector<VertexId> owner;  ///< owning seed or kInvalidVertex
  std::vector<Weight> dist;     ///< weighted distance to the owning seed
  int max_hops = 0;             ///< deepest settled vertex (the charge)
};

CappedVoronoi capped_voronoi(const Graph& g, const std::vector<Weight>& w,
                             const std::vector<VertexId>& seeds, int hop_cap) {
  ShortestPathResult r = dijkstra_multi(g, w, seeds, hop_cap);
  return CappedVoronoi{std::move(r.source), std::move(r.dist), r.max_hops()};
}

}  // namespace

std::vector<Weight> round_weights(const std::vector<Weight>& w,
                                  double epsilon) {
  require(epsilon > 0, "round_weights: epsilon must be positive");
  Weight wmax = 1;
  for (Weight x : w) {
    require(x >= 1, "round_weights: weights must be >= 1");
    wmax = std::max(wmax, x);
  }
  // Representative ladder 1 = r_0 < r_1 < ... with r_{b+1} =
  // max(r_b + 1, floor(r_b * (1+eps))): snapping an integer weight up to the
  // next representative costs at most a (1+eps) factor per edge (if the jump
  // was the +1 branch, the snap is exact). The ladder has <= 2/eps +1 branch
  // steps and then grows by a factor >= (1+eps/2) per step; refuse clearly
  // (instead of hanging) when epsilon is too small for the weight range.
  const double ladder_steps =
      2.0 / epsilon +
      2.0 * std::log(static_cast<double>(wmax) + 1.0) / std::log1p(epsilon) +
      16.0;
  require(ladder_steps <= 1e8,
          "round_weights: epsilon too small for the weight range");
  // Walk the ladder once, streaming assignments over the weights in sorted
  // order — no materialized ladder, O(m) memory.
  std::vector<std::size_t> order(w.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return w[a] < w[b]; });
  std::vector<Weight> out(w.size());
  Weight r = 1;
  std::size_t i = 0;
  while (i < order.size() && w[order[i]] <= r) out[order[i++]] = r;
  while (i < order.size()) {
    const Weight grown = static_cast<Weight>(
        static_cast<long double>(r) *
        (1.0L + static_cast<long double>(epsilon)));
    r = std::max(r + 1, grown);
    while (i < order.size() && w[order[i]] <= r) out[order[i++]] = r;
  }
  return out;
}

SsspPayload exact_sssp(const ExactSssp& q, PhaseMeter& meter) {
  Simulator& sim = meter.sim();
  const Graph& g = sim.graph();
  const VertexId n = g.num_vertices();
  const std::vector<Weight>& w = q.weights;
  const VertexId source = q.source;
  require(static_cast<EdgeId>(w.size()) == g.num_edges(),
          "exact_sssp: weight size mismatch");
  for (Weight x : w) require(x >= 0, "exact_sssp: negative weight");
  require(source >= 0 && source < n, "exact_sssp: source out of range");

  SsspPayload out;
  out.dist.assign(n, kUnreachedWeight);
  out.dist[source] = 0;
  std::vector<char> in_frontier(n, 0);
  std::vector<VertexId> frontier{source};
  in_frontier[source] = 1;
  BellmanFordProgram prog(sim, w, out.dist, in_frontier, frontier);
  prog.budget = std::numeric_limits<long long>::max();
  (void)run_vertex_program(sim, prog);
  return out;
}

SsspPayload approx_sssp(const ApproxSssp& q, const ShortcutSource& shortcuts,
                        PhaseMeter& meter,
                        const LddDecomposition* fixed_cells) {
  Simulator& sim = meter.sim();
  const Graph& g = sim.graph();
  const VertexId n = g.num_vertices();
  const std::vector<Weight>& w = q.weights;
  const VertexId source = q.source;
  require(static_cast<bool>(shortcuts), "approx_sssp: no shortcut source");
  require(source >= 0 && source < n, "approx_sssp: source out of range");
  require(static_cast<EdgeId>(w.size()) == g.num_edges(),
          "approx_sssp: weight size mismatch");
  // The core's spanning-tree factory (and Definition 10 itself) assumes
  // one connected network, like distributed_bfs.
  require(is_connected(g), "approx_sssp: graph disconnected");
  const std::vector<Weight> w2 = round_weights(w, q.epsilon);

  const VertexId num_seeds =
      q.num_seeds > 0
          ? q.num_seeds
          : std::max<VertexId>(2, static_cast<VertexId>(std::ceil(
                                      std::sqrt(static_cast<double>(n)))));
  // Voronoi growth stops at this hop depth (a few cell diameters),
  // bounding the charged per-phase construction cost.
  const int hop_cap =
      std::clamp(4 * (n / std::max<VertexId>(1, num_seeds)), VertexId{16},
                 std::max<VertexId>(16, n));

  SsspPayload out;
  out.dist.assign(n, kUnreachedWeight);
  out.dist[source] = 0;
  std::vector<char> in_frontier(n, 0);
  std::vector<VertexId> frontier{source};
  in_frontier[source] = 1;
  long long reached = 1;
  long long reached_at_partition = 0;

  // Per-part "some member improved since the last jump" flags: a jump only
  // aggregates dirty parts — a clean part's min is provably unchanged, so
  // re-flooding its (possibly long-settled) cell would buy nothing and cost
  // congestion rounds. Jump-applied improvements do NOT re-dirty their own
  // part: they are base + cdist[u], so dist[u] + cdist[u] >= base, and the
  // part minimum cannot have dropped. Within one partition estimates only
  // fall, so a jump floods only the members below their part's last
  // minimum (`last_min`), which every member already relaxed through; a
  // part with no such member keeps that minimum and is not relaxed again.
  std::unique_ptr<Partition> parts;
  const Partition* parts_raw = nullptr;
  std::unique_ptr<PartwiseAggregator> agg;
  std::vector<Weight> cdist;
  std::vector<char> part_dirty;
  std::vector<AggValue> last_min;

  // Bounded event-driven Bellman-Ford bursts (the same program as
  // exact_sssp, capped at the loop's budget; reused across bursts).
  BellmanFordProgram burst(sim, w2, out.dist, in_frontier, frontier);
  burst.reached = &reached;
  burst.parts = &parts_raw;
  burst.part_dirty = &part_dirty;

  // The jump-side relax (sequential, mark_part=false semantics); burst-side
  // relaxes live in BellmanFordProgram::receive with part marking on. The
  // new estimate came through the cell seed, not over v's last relaxing
  // edge, so v must send to every neighbour again.
  auto jump_relax = [&](VertexId v, Weight cand) {
    if (cand >= out.dist[v]) return;
    if (out.dist[v] == kUnreachedWeight) ++reached;
    out.dist[v] = cand;
    burst.via[v] = kInvalidEdge;
    if (!in_frontier[v]) {
      in_frontier[v] = 1;
      frontier.push_back(v);
    }
  };

  // Per-phase partition state: weighted Voronoi cells seeded around the
  // current wavefront, with cdist = intra-cell distance to the cell seed.
  // A scale phase spans from one partition rebuild to the next (bursts,
  // jumps, and the build charge included).
  auto rebuild_partition = [&] {
    if (parts) meter.close_phase("scale-phase");
    meter.open_phase();
    if (fixed_cells != nullptr) {
      // Pinned LDD cells (DESIGN.md §13): one weight-independent clustering
      // for the whole run. cdist = forest distance to the cluster center
      // under w2 — still a real path length (u -> center -> v), so the
      // never-undershoot invariant and exactness-at-quiescence carry over.
      const LddDecomposition& ldd = *fixed_cells;
      require(ldd.parts.part_of_all().size() == static_cast<std::size_t>(n),
              "approx_sssp: fixed cells sized for a different graph");
      parts = std::make_unique<Partition>(ldd.parts);
      parts_raw = parts.get();
      SourcedShortcut sc = shortcuts(g, *parts);
      agg = std::make_unique<PartwiseAggregator>(g, *parts, *sc.shortcut);
      cdist = ldd_forest_distances(ldd, g, w2);
      part_dirty.assign(static_cast<std::size_t>(parts->num_parts()), 1);
      last_min.assign(static_cast<std::size_t>(parts->num_parts()), kNoValue);
      // A distributed ball growing settles in radius-many BFS rounds.
      if (sc.fresh) meter.charge(ldd.radius + 1);
      reached_at_partition = reached;
      return;
    }
    std::vector<char> is_seed(n, 0);
    std::vector<VertexId> seeds;
    if (q.wavefront_seeds) {
      // Wavefront seeds first (evenly spaced along the front by distance),
      // then a deterministic spread over still-unreached terrain so cells
      // exist wherever propagation goes next.
      std::vector<VertexId> wavefront;
      for (VertexId v = 0; v < n; ++v) {
        if (out.dist[v] == kUnreachedWeight) continue;
        for (VertexId u : g.neighbors(v))
          if (out.dist[u] == kUnreachedWeight) {
            wavefront.push_back(v);
            break;
          }
      }
      std::sort(wavefront.begin(), wavefront.end(),
                [&](VertexId a, VertexId b) {
                  return std::pair(out.dist[a], a) < std::pair(out.dist[b], b);
                });
      const VertexId front_size = static_cast<VertexId>(wavefront.size());
      const VertexId from_front =
          std::min(front_size, std::max<VertexId>(1, num_seeds / 2));
      for (VertexId i = 0; i < from_front; ++i) {
        const VertexId s = wavefront[static_cast<std::size_t>(i) *
                                     static_cast<std::size_t>(front_size) /
                                     static_cast<std::size_t>(from_front)];
        if (!is_seed[s]) {
          is_seed[s] = 1;
          seeds.push_back(s);
        }
      }
      if (seeds.empty()) {
        is_seed[source] = 1;
        seeds.push_back(source);
      }
      const VertexId stride = std::max<VertexId>(1, n / (num_seeds + 1));
      for (int pass = 0;
           pass < 2 && static_cast<VertexId>(seeds.size()) < num_seeds; ++pass)
        for (VertexId v = 0;
             v < n && static_cast<VertexId>(seeds.size()) < num_seeds;
             v += stride) {
          if (is_seed[v]) continue;
          if (pass == 0 && out.dist[v] != kUnreachedWeight) continue;
          is_seed[v] = 1;
          seeds.push_back(v);
        }
    } else {
      // Source-independent stride spread: the same partition for every query
      // on this network, so a caching source pays its construction once per
      // session instead of once per query (DESIGN.md §5).
      const VertexId stride = std::max<VertexId>(1, n / num_seeds);
      for (VertexId v = 0;
           v < n && static_cast<VertexId>(seeds.size()) < num_seeds;
           v += stride) {
        is_seed[v] = 1;
        seeds.push_back(v);
      }
    }

    CappedVoronoi vor = capped_voronoi(g, w2, seeds, hop_cap);
    std::vector<PartId> seed_index(n, kNoPart);
    for (std::size_t i = 0; i < seeds.size(); ++i)
      seed_index[seeds[i]] = static_cast<PartId>(i);
    std::vector<PartId> part_of(n, kNoPart);
    for (VertexId v = 0; v < n; ++v)
      if (vor.owner[v] != kInvalidVertex) part_of[v] = seed_index[vor.owner[v]];
    parts = std::make_unique<Partition>(std::move(part_of));
    parts_raw = parts.get();
    SourcedShortcut sc = shortcuts(g, *parts);
    agg = std::make_unique<PartwiseAggregator>(g, *parts, *sc.shortcut);
    cdist = std::move(vor.dist);
    part_dirty.assign(static_cast<std::size_t>(parts->num_parts()), 1);
    last_min.assign(static_cast<std::size_t>(parts->num_parts()), kNoValue);
    // Charge the centralized cell growth as the rounds its distributed
    // (Bellman-Ford-style) counterpart would take: the forest's hop depth.
    // A cache hit means this partition's cells and shortcut were already
    // paid for in this session — no second charge (DESIGN.md §2).
    if (sc.fresh) meter.charge(vor.max_hops + 1);
    reached_at_partition = reached;
  };

  auto need_repartition = [&] {
    if (!parts) return true;
    // Pinned LDD cells never move, and source-independent stride cells
    // would rebuild to the same cells, shortcut and aggregator.
    if (fixed_cells != nullptr || !q.wavefront_seeds) return false;
    if (static_cast<double>(reached - reached_at_partition) >
        q.repartition_growth * static_cast<double>(n))
      return true;
    if (frontier.empty()) return false;
    // The wavefront has mostly left the covered region.
    VertexId uncovered = 0;
    for (VertexId v : frontier)
      if (parts->part_of(v) == kNoPart) ++uncovered;
    return 2 * uncovered > static_cast<VertexId>(frontier.size());
  };

  // Whether a neighbour u in v's cell last sent a value below x, v's own:
  // v then cannot hold the cell minimum, since sent[u] >= dist[u]. v knows
  // u's cell and cdist[u] from the cell growth, and sent[u] because u sent
  // it to v, or because u's estimate came from v, which bounds it below
  // by v's own.
  auto beaten_in_cell = [&](VertexId v, PartId p, const AggValue& x) {
    for (VertexId u : g.neighbors(v)) {
      if (parts->part_of(u) != p || burst.sent[u] == kUnreachedWeight)
        continue;
      if (AggValue{burst.sent[u] + cdist[u], u} < x) return true;
    }
    return false;
  };

  // One shortcut-backed jump: every DIRTY cell aggregates min(dist + cdist)
  // and every member relaxes through the cell seed. Only the members below
  // their part's last minimum that no cell neighbour beats seed the flood;
  // the member holding the minimum always does, so every part's result is
  // the unfiltered flood's. All estimates remain real path lengths, so the
  // exactness-at-quiescence argument is untouched. Returns the rounds the
  // aggregation consumed (0 = nothing was dirty).
  std::vector<AggValue> init(n);
  auto cluster_jump = [&] {
    bool any_dirty = false;
    std::fill(init.begin(), init.end(), kNoValue);
    for (VertexId v = 0; v < n; ++v) {
      if (out.dist[v] == kUnreachedWeight) continue;
      const PartId p = parts->part_of(v);
      if (p == kNoPart || !part_dirty[static_cast<std::size_t>(p)]) continue;
      any_dirty = true;
      const AggValue x{out.dist[v] + cdist[v], v};
      if (x < last_min[static_cast<std::size_t>(p)] &&
          !beaten_in_cell(v, p, x))
        init[v] = x;
    }
    if (!any_dirty) return 0LL;
    ++out.jumps;
    meter.aggregated();
    std::fill(part_dirty.begin(), part_dirty.end(), 0);
    const AggregationResult res = agg->aggregate_min(sim, init);
    for (PartId p = 0; p < parts->num_parts(); ++p) {
      if (res.min_of_part[p] == kNoValue) continue;
      last_min[static_cast<std::size_t>(p)] = res.min_of_part[p];
      const Weight base = res.min_of_part[p].value;
      for (VertexId u : parts->members(p)) jump_relax(u, base + cdist[u]);
    }
    return res.rounds;
  };

  // Cycle: a Bellman-Ford burst, then a jump. The burst budget adapts to the
  // measured cost of the previous jump, so cheap shortcuts (small quality)
  // mean frequent jumps while expensive ones amortize over longer bursts.
  // Nothing bounds the total by the plain-BF rounds: on perfbench's planar
  // grids it measures 2.0-2.8x of them (ROADMAP item 2). A burst that
  // empties the frontier has reached Bellman-Ford's fixed point, where
  // every estimate is exact and no jump can lower one: the run ends there.
  int budget = kBfRoundsPerCycle;
  while (true) {
    if (need_repartition()) rebuild_partition();
    burst.budget = budget;
    (void)run_vertex_program(sim, burst);
    if (frontier.empty()) break;
    const long long jump_rounds = cluster_jump();
    budget = std::max<int>(
        kBfRoundsPerCycle,
        static_cast<int>(std::min<long long>(jump_rounds, 1 << 20)));
  }
  meter.close_phase("scale-phase");
  return out;
}

}  // namespace mns::congest
