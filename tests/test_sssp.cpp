// Golden fixed-seed tests for the distributed SSSP subsystem: the exact
// lock-step Bellman-Ford must equal the sequential Dijkstra oracle on every
// generator family, the (1+eps) shortcut-accelerated SSSP must stay within
// its guarantee (and never below the true distance — every estimate is a
// real path), and the weight-rounding ladder must respect its per-edge
// (1+eps) bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "congest/session.hpp"
#include "congest/sssp.hpp"
#include "core/shortcut_engine.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "graph/algorithms.hpp"

namespace mns {
namespace {

using congest::RunReport;
using congest::Session;

Session greedy_session(const Graph& g) {
  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(99);
  return Session(g, greedy_certificate(), std::move(cfg));
}

void expect_exact_matches_oracle(const Graph& g, const std::vector<Weight>& w,
                                 VertexId source) {
  Session s = greedy_session(g);
  RunReport res = s.solve(congest::ExactSssp{w, source});
  ShortestPathResult ref = dijkstra(g, w, source);
  ASSERT_EQ(res.sssp().dist.size(), ref.dist.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.sssp().dist[v], ref.dist[v]) << "vertex " << v;
  EXPECT_GE(res.rounds, 1);
  EXPECT_LE(res.rounds, g.num_vertices());
}

void expect_approx_within(const Graph& g, const congest::ApproxSssp& query,
                          StructuralCertificate cert) {
  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(99);
  Session s(g, std::move(cert), std::move(cfg));
  RunReport res = s.solve(query);
  ShortestPathResult ref = dijkstra(g, query.weights, query.source);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (ref.dist[v] == kUnreachedWeight) {
      EXPECT_EQ(res.sssp().dist[v], kUnreachedWeight) << "vertex " << v;
      continue;
    }
    // Estimates are lengths of real paths: never below the true distance.
    EXPECT_GE(res.sssp().dist[v], ref.dist[v]) << "vertex " << v;
    EXPECT_LE(static_cast<double>(res.sssp().dist[v]),
              (1.0 + query.epsilon) * static_cast<double>(ref.dist[v]) + 1e-9)
        << "vertex " << v;
  }
  EXPECT_GE(res.phases, 1);
  EXPECT_GE(res.aggregations, 1);
}

TEST(RoundWeights, LadderRespectsPerEdgeBound) {
  std::vector<Weight> w{1, 2, 3, 7, 10, 99, 1000, 123456, 1, 5};
  for (double eps : {0.05, 0.25, 1.0}) {
    std::vector<Weight> r = congest::round_weights(w, eps);
    ASSERT_EQ(r.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_GE(r[i], w[i]);
      EXPECT_LE(static_cast<double>(r[i]),
                (1.0 + eps) * static_cast<double>(w[i]));
    }
  }
  EXPECT_THROW(congest::round_weights({0}, 0.5), InvariantViolation);
  EXPECT_THROW(congest::round_weights({1}, 0.0), InvariantViolation);
}

TEST(ExactSssp, MatchesDijkstraOnGrid) {
  Rng rng(7);
  Graph g = gen::grid(9, 11).graph();
  expect_exact_matches_oracle(g, gen::unique_random_weights(g, rng), 0);
}

TEST(ExactSssp, MatchesDijkstraOnRandomPlanar) {
  for (unsigned seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Graph g = gen::random_maximal_planar(150, rng).graph();
    expect_exact_matches_oracle(g, gen::unique_random_weights(g, rng),
                                static_cast<VertexId>(seed));
  }
}

TEST(ExactSssp, MatchesDijkstraOnKTree) {
  Rng rng(17);
  gen::KTreeResult kt = gen::random_ktree(200, 3, rng);
  expect_exact_matches_oracle(kt.graph,
                              gen::unique_random_weights(kt.graph, rng), 5);
}

TEST(ExactSssp, MatchesDijkstraOnApexGrid) {
  Rng rng(23);
  gen::ApexResult ar = gen::add_apices(gen::grid(8, 8).graph(), 2, 0.2, rng);
  expect_exact_matches_oracle(ar.graph,
                              gen::unique_random_weights(ar.graph, rng), 0);
}

TEST(ExactSssp, MatchesDijkstraOnCliqueSum) {
  Rng rng(31);
  Graph bag = gen::triangulated_grid(4, 4).graph();
  std::vector<gen::BagInput> inputs;
  for (int i = 0; i < 8; ++i)
    inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
  gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
  expect_exact_matches_oracle(cs.graph,
                              gen::unique_random_weights(cs.graph, rng), 1);
}

TEST(ExactSssp, LeavesOtherComponentsUnreached) {
  // Two disjoint triangles; only the source's component is reached.
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  Graph g = b.build();
  std::vector<Weight> w(g.num_edges(), 2);
  Session s = greedy_session(g);
  RunReport res = s.solve(congest::ExactSssp{w, 0});
  EXPECT_EQ(res.sssp().dist[0], 0);
  EXPECT_EQ(res.sssp().dist[1], 2);
  EXPECT_EQ(res.sssp().dist[2], 2);
  for (VertexId v = 3; v < 6; ++v)
    EXPECT_EQ(res.sssp().dist[v], kUnreachedWeight);
}

TEST(ExactSssp, RoundsTrackShortestPathHops) {
  // A weighted path: dist cascades one hop per round.
  Graph g = gen::path(40);
  std::vector<Weight> w(g.num_edges());
  Rng rng(3);
  w = gen::random_weights(g, 1, 9, rng);
  Session s = greedy_session(g);
  RunReport res = s.solve(congest::ExactSssp{w, 0});
  EXPECT_GE(res.rounds, 39);
  EXPECT_LE(res.rounds, 40);
}

TEST(ExactSssp, PathFromAnEndSendsOneMessagePerEdge) {
  // Each vertex relaxes once, from its predecessor, and never sends its
  // estimate back over that edge; the far end, whose only edge is that one,
  // is never queued, so no round goes by without a message.
  Rng rng(5);
  for (VertexId n : {2, 40}) {
    SCOPED_TRACE(n);
    Graph g = gen::path(n);
    const std::vector<Weight> w = gen::random_weights(g, 1, 9, rng);
    Session s = greedy_session(g);
    RunReport res = s.solve(congest::ExactSssp{w, 0});
    EXPECT_EQ(res.messages, n - 1);
    EXPECT_EQ(res.rounds, n - 1);
    EXPECT_EQ(res.sssp().dist, dijkstra(g, w, 0).dist);
  }
}

TEST(ApproxSssp, WithinEpsOnGridGreedyCertificate) {
  Rng rng(41);
  Graph g = gen::grid(12, 12).graph();
  congest::ApproxSssp query{gen::unique_random_weights(g, rng), 0};
  query.epsilon = 0.25;
  expect_approx_within(g, query, greedy_certificate());
}

TEST(ApproxSssp, WithinEpsOnKTreeTreewidthCertificate) {
  Rng rng(43);
  gen::KTreeResult kt = gen::random_ktree(250, 3, rng);
  congest::ApproxSssp query{gen::unique_random_weights(kt.graph, rng), 3};
  query.epsilon = 0.5;
  expect_approx_within(kt.graph, query,
                       treewidth_certificate(kt.decomposition));
}

TEST(ApproxSssp, WithinEpsOnApexCertificate) {
  Rng rng(47);
  gen::ApexResult ar = gen::add_apices(gen::grid(10, 10).graph(), 1, 0.15, rng);
  congest::ApproxSssp query{gen::unique_random_weights(ar.graph, rng), 0};
  query.epsilon = 0.1;
  expect_approx_within(ar.graph, query, apex_certificate(ar.apices));
}

TEST(ApproxSssp, WithinEpsOnCliqueSumCertificate) {
  Rng rng(53);
  Graph bag = gen::triangulated_grid(4, 4).graph();
  std::vector<gen::BagInput> inputs;
  for (int i = 0; i < 10; ++i)
    inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
  gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
  congest::ApproxSssp query{gen::unique_random_weights(cs.graph, rng), 0};
  query.epsilon = 0.25;
  expect_approx_within(cs.graph, query,
                       cliquesum_certificate(cs.decomposition));
}

TEST(ApproxSssp, DeterministicSeedsStayWithinEps) {
  // The source-independent (cache-friendly) seeding must preserve the
  // guarantee: estimates are still real path lengths run to quiescence.
  Rng rng(59);
  Graph g = gen::grid(12, 12).graph();
  congest::ApproxSssp query{gen::unique_random_weights(g, rng), 7};
  query.epsilon = 0.25;
  query.wavefront_seeds = false;
  expect_approx_within(g, query, greedy_certificate());
}

TEST(ApproxSssp, ExactWhenWeightsAlreadyOnLadder) {
  // Unit weights are fixed points of every ladder: the approximation then
  // equals the exact (hop-count) distances at any epsilon.
  Graph g = gen::cycle(30);
  std::vector<Weight> w(g.num_edges(), 1);
  Session s = greedy_session(g);
  congest::ApproxSssp query{w, 0};
  query.epsilon = 3.0;
  RunReport res = s.solve(query);
  ShortestPathResult ref = dijkstra(g, w, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.sssp().dist[v], ref.dist[v]) << "vertex " << v;
}

TEST(ApproxSssp, ConvergedBurstEndsTheRun) {
  // Bellman-Ford settles a 6-vertex path from one end inside the first
  // burst. Its fixed point is exact, so no jump could lower an estimate:
  // the run ends there and costs what exact Bellman-Ford costs under the
  // rounded weights.
  Rng rng(7);
  Graph g = gen::path(6);
  congest::ApproxSssp query{gen::random_weights(g, 1, 9, rng), 0};
  query.epsilon = 0.25;
  Session approx = greedy_session(g);
  RunReport res = approx.solve(query);
  Session exact = greedy_session(g);
  RunReport ref = exact.solve(congest::ExactSssp{
      congest::round_weights(query.weights, query.epsilon), query.source});
  EXPECT_EQ(res.sssp().jumps, 0);
  EXPECT_EQ(res.aggregations, 0);
  EXPECT_EQ(res.rounds, ref.rounds);
  EXPECT_EQ(res.messages, ref.messages);
  EXPECT_EQ(res.sssp().dist, ref.sssp().dist);
}

TEST(ApproxSssp, SourceIndependentCellsAreBuiltOnce) {
  // Stride cells do not depend on the wavefront, so a rebuild would
  // recompute the same cells and look up the same shortcut: one scale
  // phase and one cache lookup, where the wavefront's growth past
  // repartition_growth would otherwise open a second.
  Rng rng(61);
  Graph g = gen::grid(16, 16).graph();
  congest::ApproxSssp query{gen::unique_random_weights(g, rng), 0};
  query.wavefront_seeds = false;
  Session s = greedy_session(g);
  RunReport res = s.solve(query);
  EXPECT_EQ(res.phases, 1);
  EXPECT_EQ(res.cache_hits + res.cache_misses, 1);
  EXPECT_EQ(res.sssp().dist,
            dijkstra(g, congest::round_weights(query.weights, query.epsilon),
                     query.source)
                .dist);
}

struct FixedPointCase {
  const char* family;
  Graph g;
  StructuralCertificate cert;
  std::uint64_t weight_seed;
  double epsilon;
  VertexId source;
};

TEST(ApproxSssp, ReachesTheExactFixedPointUnderRoundedWeights) {
  // approx_sssp runs to quiescence, so every estimate must equal Dijkstra's
  // distance under round_weights(w, eps), not merely lie within (1+eps) of
  // the true one — with wavefront cells, stride cells and LDD-pinned cells.
  // On each case, some configuration stops short of that fixed point if a
  // cluster jump leaves the vertex's last relaxing edge in place: the
  // vertex then never sends its jumped estimate over that edge.
  std::vector<FixedPointCase> cases;
  cases.push_back(
      {"planar", gen::grid(24, 24).graph(), greedy_certificate(), 64, 0.10, 0});
  cases.push_back({"planar", gen::grid(24, 24).graph(), greedy_certificate(),
                   22, 0.10, 575});
  {
    Rng rng(4);
    gen::KTreeResult kt = gen::random_ktree(576, 3, rng);
    cases.push_back({"treewidth", kt.graph,
                     treewidth_certificate(kt.decomposition), 29, 0.10, 522});
  }
  {
    Rng rng(2);
    gen::ApexResult ar =
        gen::add_apices(gen::grid(24, 24).graph(), 1, 0.15, rng);
    cases.push_back(
        {"apex", ar.graph, apex_certificate(ar.apices), 15, 0.25, 0});
  }
  {
    Rng rng(3);
    Graph bag = gen::triangulated_grid(6, 6).graph();
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < 12; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
    gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
    cases.push_back({"cliquesum", cs.graph,
                     cliquesum_certificate(cs.decomposition), 22, 0.10, 412});
  }
  for (const FixedPointCase& c : cases) {
    Rng wrng(c.weight_seed);
    const std::vector<Weight> w = gen::unique_random_weights(c.g, wrng);
    const std::vector<Weight> want =
        dijkstra(c.g, congest::round_weights(w, c.epsilon), c.source).dist;
    for (const char* cells : {"wavefront", "stride", "ldd"}) {
      SCOPED_TRACE(testing::Message() << c.family << " source " << c.source
                                      << " cells " << cells);
      congest::SessionConfig cfg;
      cfg.tree = center_tree_factory(99);
      Session s(c.g, c.cert, std::move(cfg));
      congest::ApproxSssp query{w, c.source};
      query.epsilon = c.epsilon;
      query.wavefront_seeds = std::string(cells) == "wavefront";
      congest::SolveOptions opt;
      if (std::string(cells) == "ldd")
        opt.partition = congest::PartitionSource::kLdd;
      EXPECT_EQ(s.solve(query, opt).sssp().dist, want);
    }
  }
}

TEST(ApproxSssp, RejectsDisconnectedGraphs) {
  // The shortcut machinery's spanning tree assumes one connected network
  // (same contract as Bfs); ExactSssp covers the disconnected case.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  Graph g = b.build();
  std::vector<Weight> w(g.num_edges(), 3);
  Session s = greedy_session(g);
  EXPECT_THROW((void)s.solve(congest::ApproxSssp{w, 0}), InvariantViolation);
}

TEST(ApproxSssp, RequiresPositiveWeights) {
  Graph g = gen::path(4);
  Session s = greedy_session(g);
  std::vector<Weight> zero(g.num_edges(), 0);
  EXPECT_THROW((void)s.solve(congest::ApproxSssp{zero, 0}),
               InvariantViolation);
}

TEST(Dijkstra, HopCapBoundsCellGrowth) {
  Graph g = gen::path(20);
  std::vector<Weight> w(g.num_edges(), 5);
  std::vector<VertexId> sources{0};
  ShortestPathResult r =
      dijkstra_multi(g, w, sources, /*hop_cap=*/3);
  EXPECT_EQ(r.max_hops(), 3);
  for (VertexId v = 0; v < 20; ++v) {
    if (v <= 3) {
      EXPECT_EQ(r.dist[v], 5 * v);
      EXPECT_EQ(r.hops[v], v);
      EXPECT_EQ(r.source[v], 0);
    } else {  // tentative labels beyond the cap are discarded
      EXPECT_EQ(r.dist[v], kUnreachedWeight);
      EXPECT_EQ(r.hops[v], kUnreached);
      EXPECT_EQ(r.source[v], kInvalidVertex);
    }
  }
}

TEST(Dijkstra, MultiSourceCellsAreConnected) {
  Rng rng(61);
  Graph g = gen::grid(10, 10).graph();
  std::vector<Weight> w = gen::unique_random_weights(g, rng);
  std::vector<VertexId> sources{0, 37, 99};
  ShortestPathResult r = dijkstra_multi(g, w, sources);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NE(r.source[v], kInvalidVertex);
    // Walking the recorded parents stays inside the owning cell and reaches
    // the owning source.
    VertexId x = v;
    while (r.parent[x] != kInvalidVertex) {
      EXPECT_EQ(r.source[x], r.source[v]);
      x = r.parent[x];
    }
    EXPECT_EQ(x, r.source[v]);
  }
}

}  // namespace
}  // namespace mns
