// Session contract tests: the uniform solve surface, the workload catalogue,
// and above all the shortcut-cache semantics — hits on identical partition
// fingerprints, invalidation on repartition / certificate change, LRU
// eviction, and bit-identical results (edges / dist / cut value / measured
// rounds) between cached and cold runs on every generator family.
// Construction charging is the ONLY thing allowed to differ between warm
// and cold (charged once per distinct partition, DESIGN.md §2, §5).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "congest/session.hpp"
#include "core/ldd.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "graph/algorithms.hpp"
#include "io/report_json.hpp"

namespace mns {
namespace {

using congest::RunReport;
using congest::Session;

std::vector<congest::AggValue> ramp_values(VertexId n) {
  std::vector<congest::AggValue> init(n);
  for (VertexId v = 0; v < n; ++v)
    init[v] = {static_cast<Weight>((v * 48271) % 9973), v};
  return init;
}

TEST(SessionCache, HitOnIdenticalPartitionFingerprint) {
  Graph g = gen::grid(8, 8).graph();
  Rng rng(5);
  Partition parts = voronoi_partition(g, 5, rng);
  Session s(g);
  RunReport first = s.solve(congest::Aggregate{parts, ramp_values(64)});
  EXPECT_EQ(first.cache_hits, 0);
  EXPECT_EQ(first.cache_misses, 1);
  EXPECT_GT(first.charged_construction_rounds, 0);

  RunReport second = s.solve(congest::Aggregate{parts, ramp_values(64)});
  EXPECT_EQ(second.cache_hits, 1);
  EXPECT_EQ(second.cache_misses, 0);
  // Already charged when first built: a hit re-pays nothing.
  EXPECT_EQ(second.charged_construction_rounds, 0);
  // Same shortcut, same values -> identical measured behavior and result.
  EXPECT_EQ(first.rounds, second.rounds);
  EXPECT_EQ(first.aggregate().min_of_part, second.aggregate().min_of_part);
}

TEST(SessionCache, MissOnRepartition) {
  Graph g = gen::grid(8, 8).graph();
  Rng rng(5);
  Partition parts_a = voronoi_partition(g, 5, rng);
  Partition parts_b = voronoi_partition(g, 7, rng);
  Session s(g);
  (void)s.solve(congest::Aggregate{parts_a, ramp_values(64)});
  RunReport other = s.solve(congest::Aggregate{parts_b, ramp_values(64)});
  EXPECT_EQ(other.cache_hits, 0);
  EXPECT_EQ(other.cache_misses, 1);
  // Both partitions now live in the cache.
  EXPECT_EQ(s.cache_size(), 2u);
  RunReport again = s.solve(congest::Aggregate{parts_a, ramp_values(64)});
  EXPECT_EQ(again.cache_hits, 1);
}

TEST(SessionCache, InvalidationOnCertificateChange) {
  Graph g = gen::grid(8, 8).graph();
  Rng rng(9);
  Partition parts = voronoi_partition(g, 4, rng);
  Session s(g, greedy_certificate());
  (void)s.solve(congest::Aggregate{parts, ramp_values(64)});
  s.set_certificate(steiner_certificate());
  // Same partition, new structural knowledge: must rebuild, not serve the
  // greedy shortcut back.
  RunReport after = s.solve(congest::Aggregate{parts, ramp_values(64)});
  EXPECT_EQ(after.cache_hits, 0);
  EXPECT_EQ(after.cache_misses, 1);
}

TEST(SessionCache, CoreSwapsKeepTheConfiguredKnobs) {
  // set_certificate builds a successor core over the same graph. It must
  // keep the LDD options and cache capacity the session was configured
  // with, or `--partition ldd` solves silently switch to a different
  // clustering.
  Graph g = gen::grid(8, 8).graph();
  congest::SessionConfig cfg;
  cfg.cache_capacity = 3;
  cfg.ldd.beta = 0.5;
  cfg.ldd.seed = 9;
  Session s(g, greedy_certificate(), std::move(cfg));
  auto part_of = [](const Partition& parts) {
    const std::span<const PartId> ids = parts.part_of_all();
    return std::vector<PartId>(ids.begin(), ids.end());
  };
  auto clusters = [&] { return part_of(s.core_ptr()->ldd().parts); };
  const std::vector<PartId> configured = clusters();
  ASSERT_NE(configured, part_of(ldd_decompose(g).parts));  // knobs matter

  s.set_certificate(steiner_certificate());
  EXPECT_EQ(clusters(), configured);
  EXPECT_EQ(s.core_ptr()->config().cache_capacity, 3u);
}

TEST(SessionCache, TreeFactoryOutputIsValidated) {
  // The round engine sends along the core tree's parent edges unchecked, so
  // the core refuses a factory tree that is not bound to the graph's edges
  // or does not span the graph, naming the vertex.
  Graph g = gen::grid(6, 6).graph();
  Rng rng(3);
  const std::vector<Weight> w = gen::unique_random_weights(g, rng);
  congest::SessionConfig unbound;
  unbound.tree = [](const Graph& gg) {
    return RootedTree(0, bfs(gg, 0).parent);  // no parent edges
  };
  Session s(g, greedy_certificate(), std::move(unbound));
  EXPECT_THROW((void)s.solve(congest::DominatingSet{}), InvariantViolation);
  EXPECT_THROW((void)s.solve(congest::GhsMst{w}), InvariantViolation);
  EXPECT_THROW((void)s.solve(congest::Mst{w}), InvariantViolation);
  try {
    (void)s.tree();
    ADD_FAILURE() << "an unbound tree was installed";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("vertex 1 "), std::string::npos)
        << e.what();
  }

  congest::SessionConfig small;
  small.tree = [](const Graph&) {
    return RootedTree(0, {kInvalidVertex, 0, 0, 0});
  };
  Session t(g, greedy_certificate(), std::move(small));
  EXPECT_THROW((void)t.solve(congest::Mst{w}), InvariantViolation);
  EXPECT_THROW((void)t.tree(), InvariantViolation);
}

TEST(SessionCache, LruEvictsLeastRecentlyUsed) {
  Graph g = gen::grid(8, 8).graph();
  Rng rng(13);
  Partition a = voronoi_partition(g, 3, rng);
  Partition b = voronoi_partition(g, 5, rng);
  Partition c = voronoi_partition(g, 7, rng);
  congest::SessionConfig cfg;
  cfg.cache_capacity = 2;
  Session s(g, greedy_certificate(), std::move(cfg));
  (void)s.solve(congest::Aggregate{a, ramp_values(64)});
  (void)s.solve(congest::Aggregate{b, ramp_values(64)});
  (void)s.solve(congest::Aggregate{c, ramp_values(64)});  // evicts a
  EXPECT_EQ(s.cache_size(), 2u);
  RunReport again_a = s.solve(congest::Aggregate{a, ramp_values(64)});
  EXPECT_EQ(again_a.cache_misses, 1);  // was evicted
  RunReport again_c = s.solve(congest::Aggregate{c, ramp_values(64)});
  EXPECT_EQ(again_c.cache_hits, 1);  // still resident
}

TEST(SessionCache, AnalyzeSeedsTheCache) {
  Graph g = gen::grid(8, 8).graph();
  Rng rng(17);
  Partition parts = voronoi_partition(g, 4, rng);
  Session s(g);
  BuildResult br = s.analyze(parts);
  EXPECT_GE(br.metrics.quality, 1);
  RunReport rep = s.solve(congest::Aggregate{parts, ramp_values(64)});
  EXPECT_EQ(rep.cache_hits, 1);
  EXPECT_EQ(rep.cache_misses, 0);
}

// --- warm vs cold parity on every generator family -----------------------

struct FamilyCase {
  std::string name;
  Graph graph;
  StructuralCertificate cert;
};

std::vector<FamilyCase> parity_families() {
  std::vector<FamilyCase> out;
  Rng rng(23);
  out.push_back({"grid", gen::grid(9, 9).graph(), greedy_certificate()});
  out.push_back({"maximal_planar", gen::random_maximal_planar(100, rng).graph(),
                 greedy_certificate()});
  {
    gen::KTreeResult kt = gen::random_ktree(90, 3, rng);
    out.push_back({"ktree3", kt.graph,
                   treewidth_certificate(kt.decomposition)});
  }
  {
    gen::ApexResult ar = gen::add_apices(gen::grid(7, 7).graph(), 1, 0.2, rng);
    out.push_back({"grid+apex", ar.graph, apex_certificate(ar.apices)});
  }
  {
    Graph bag = gen::triangulated_grid(4, 4).graph();
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < 5; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
    gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
    out.push_back({"cliquesum", cs.graph,
                   cliquesum_certificate(cs.decomposition)});
  }
  return out;
}

TEST(SessionParity, CachedAndColdRunsBitIdenticalOnEveryFamily) {
  congest::SolveOptions cold_opt;
  cold_opt.use_cache = false;
  for (FamilyCase& fam : parity_families()) {
    SCOPED_TRACE(fam.name);
    Rng wrng(31);
    std::vector<Weight> w = gen::unique_random_weights(fam.graph, wrng);

    Session warm(fam.graph, fam.cert);
    Session cold(fam.graph, fam.cert);

    // MST: warm twice (second leans on the cache), cold once.
    RunReport w1 = warm.solve(congest::Mst{w});
    RunReport w2 = warm.solve(congest::Mst{w});
    RunReport c1 = cold.solve(congest::Mst{w}, cold_opt);
    EXPECT_EQ(w1.mst().edges, c1.mst().edges);
    EXPECT_EQ(w2.mst().edges, c1.mst().edges);
    EXPECT_EQ(w1.rounds, c1.rounds);  // measured rounds never depend on cache
    EXPECT_EQ(w2.rounds, c1.rounds);
    EXPECT_EQ(w2.cache_misses, 0);    // every partition already resident
    EXPECT_GT(w2.cache_hits, 0);
    EXPECT_EQ(w2.charged_construction_rounds, 0);
    EXPECT_LE(w1.charged_construction_rounds,
              c1.charged_construction_rounds);

    // Approx SSSP: identical queries produce identical distance vectors and
    // identical measured rounds; the repeat hits the cache.
    congest::ApproxSssp q{w, 0};
    q.epsilon = 0.25;
    RunReport s1 = warm.solve(q);
    RunReport s2 = warm.solve(q);
    RunReport sc = cold.solve(q, cold_opt);
    EXPECT_EQ(s1.sssp().dist, sc.sssp().dist);
    EXPECT_EQ(s2.sssp().dist, sc.sssp().dist);
    EXPECT_EQ(s1.rounds, sc.rounds);
    EXPECT_EQ(s2.rounds, sc.rounds);
    EXPECT_GT(s2.cache_hits, 0);
    EXPECT_EQ(s2.charged_construction_rounds, 0);

    // Min cut: same value, same measured rounds, warm repeat fully cached.
    congest::MinCut mq{w};
    mq.num_trees = 4;
    RunReport m1 = warm.solve(mq);
    RunReport m2 = warm.solve(mq);
    RunReport mc = cold.solve(mq, cold_opt);
    EXPECT_EQ(m1.min_cut().value, mc.min_cut().value);
    EXPECT_EQ(m2.min_cut().value, mc.min_cut().value);
    EXPECT_EQ(m1.rounds, mc.rounds);
    EXPECT_EQ(m2.rounds, mc.rounds);
    EXPECT_GT(m2.cache_hits, 0);
  }
}

// --- thread parity: the DESIGN.md §7 bit-identical contract ---------------

// For every certificate family, run MST, min-cut and approx-SSSP on seeded
// random instances at threads=1 and at a genuinely parallel width (at least
// 4, or hardware_concurrency if larger) and require the RunReports to be
// bit-identical in everything but wall clock: rounds, messages, charges,
// phase counts and full payloads. This is the randomized parity sweep that
// pins the vertex-parallel round engine to the sequential oracle.
TEST(SessionParity, ThreadedRunsBitIdenticalToSequentialOnEveryFamily) {
  const int wide = std::max(
      4, static_cast<int>(std::thread::hardware_concurrency()));
  for (FamilyCase& fam : parity_families()) {
    SCOPED_TRACE(fam.name);
    Rng wrng(61);
    std::vector<Weight> w = gen::unique_random_weights(fam.graph, wrng);

    congest::SessionConfig seq_cfg, par_cfg;
    par_cfg.execution.threads = wide;
    Session seq(fam.graph, fam.cert, std::move(seq_cfg));
    Session par(fam.graph, fam.cert, std::move(par_cfg));

    auto expect_same = [&](const RunReport& a, const RunReport& b) {
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(a.messages, b.messages);
      EXPECT_EQ(a.charged_construction_rounds, b.charged_construction_rounds);
      EXPECT_EQ(a.phases, b.phases);
      EXPECT_EQ(a.aggregations, b.aggregations);
    };

    RunReport m1 = seq.solve(congest::Mst{w});
    RunReport mp = par.solve(congest::Mst{w});
    EXPECT_EQ(m1.threads, 1);
    EXPECT_EQ(mp.threads, wide);
    expect_same(m1, mp);
    EXPECT_EQ(m1.mst().edges, mp.mst().edges);
    EXPECT_EQ(m1.mst().fragment_of, mp.mst().fragment_of);

    congest::MinCut mq{w};
    mq.num_trees = 3;
    RunReport c1 = seq.solve(mq);
    RunReport cp = par.solve(mq);
    expect_same(c1, cp);
    EXPECT_EQ(c1.min_cut().value, cp.min_cut().value);

    congest::ApproxSssp q{w, 0};
    RunReport s1 = seq.solve(q);
    RunReport sp = par.solve(q);
    expect_same(s1, sp);
    EXPECT_EQ(s1.sssp().dist, sp.sssp().dist);
    EXPECT_EQ(s1.sssp().jumps, sp.sssp().jumps);
  }
}

// The per-solve override: one session can interleave sequential and
// threaded solves and every result stays identical.
TEST(SessionParity, PerSolveThreadOverrideMatchesSessionDefault) {
  Graph g = gen::grid(20, 20).graph();
  Rng rng(67);
  std::vector<Weight> w = gen::unique_random_weights(g, rng);
  Session s(g);
  congest::SolveOptions threaded;
  threaded.threads = 4;
  RunReport a = s.solve(congest::Mst{w});
  RunReport b = s.solve(congest::Mst{w}, threaded);
  EXPECT_EQ(a.threads, 1);
  EXPECT_EQ(b.threads, 4);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.mst().edges, b.mst().edges);
  // BFS and exact SSSP run through the same engine: cover them too.
  RunReport bf1 = s.solve(congest::Bfs{0});
  RunReport bf2 = s.solve(congest::Bfs{0}, threaded);
  EXPECT_EQ(bf1.rounds, bf2.rounds);
  EXPECT_EQ(bf1.bfs().dist, bf2.bfs().dist);
  EXPECT_EQ(bf1.bfs().parent, bf2.bfs().parent);
  RunReport e1 = s.solve(congest::ExactSssp{w, 0});
  RunReport e2 = s.solve(congest::ExactSssp{w, 0}, threaded);
  EXPECT_EQ(e1.rounds, e2.rounds);
  EXPECT_EQ(e1.sssp().dist, e2.sssp().dist);
}

// --- registry ------------------------------------------------------------

TEST(SessionRegistry, BuiltinsMirrorTypedSolves) {
  Graph g = gen::grid(6, 6).graph();
  Rng rng(37);
  // Every field a catalogue row reads is off its default, so a row that
  // drops one runs a different request than its typed mirror below.
  congest::WorkloadParams p;
  p.weights = gen::unique_random_weights(g, rng);
  p.source = 3;
  p.num_trees = 3;
  p.two_respecting = true;
  p.epsilon = 0.5;
  p.num_seeds = 4;
  p.repartition_growth = 1.0;
  p.wavefront_seeds = false;
  p.seed = 7;
  const std::map<std::string, std::function<RunReport(Session&)>> typed = {
      {"bfs", [&](Session& s) { return s.solve(congest::Bfs{p.source}); }},
      {"domset",
       [&](Session& s) { return s.solve(congest::DominatingSet{}); }},
      {"mincut",
       [&](Session& s) {
         return s.solve(
             congest::MinCut{p.weights, p.num_trees, p.two_respecting});
       }},
      {"mis", [&](Session& s) { return s.solve(congest::Mis{p.seed}); }},
      {"mst",
       [&](Session& s) {
         return s.solve(congest::Mst{p.weights});
       }},
      {"mst.ghs",
       [&](Session& s) { return s.solve(congest::GhsMst{p.weights}); }},
      {"sssp.approx",
       [&](Session& s) {
         return s.solve(congest::ApproxSssp{p.weights, p.source, p.epsilon,
                                            p.num_seeds, p.repartition_growth,
                                            p.wavefront_seeds});
       }},
      {"sssp.exact",
       [&](Session& s) {
         return s.solve(congest::ExactSssp{p.weights, p.source});
       }},
  };
  for (const std::string& name : congest::builtin_workload_names()) {
    const auto it = typed.find(name);
    ASSERT_NE(it, typed.end()) << "no typed mirror for catalogue row " << name;
    Session by_name_session(g);
    Session typed_session(g);
    const RunReport by_name = by_name_session.solve(name, p);
    EXPECT_EQ(by_name.workload, name);
    EXPECT_TRUE(io::run_reports_identical(by_name, it->second(typed_session)))
        << name;
  }

  Session s(g);
  RunReport sssp = s.solve("sssp.exact", p);
  EXPECT_EQ(sssp.sssp().dist, dijkstra(g, p.weights, p.source).dist);
}

TEST(SessionRegistry, UnknownNameThrows) {
  Graph g = gen::path(4);
  Session s(g);
  congest::WorkloadParams params;
  EXPECT_THROW((void)s.solve("no-such-workload", params), InvariantViolation);
}

TEST(SessionCache, AggregateRejectsAPartitionOfAnotherSize) {
  // A 10-vertex partition on a 64-vertex grid: refused before the shortcut
  // source is consulted, so nothing is built or cached, and the session
  // keeps answering well-formed requests.
  Graph g = gen::grid(8, 8).graph();
  Session s(g);
  const std::size_t entries = s.cache_size();
  EXPECT_THROW((void)s.solve(congest::Aggregate{
                   Partition(std::vector<PartId>(10, 0)), ramp_values(64)}),
               InvariantViolation);
  EXPECT_EQ(s.cache_size(), entries);
  Rng rng(5);
  Partition parts = voronoi_partition(g, 5, rng);
  RunReport ok = s.solve(congest::Aggregate{parts, ramp_values(64)});
  EXPECT_EQ(ok.aggregate().min_of_part.size(), 5u);
  EXPECT_EQ(ok.cache_misses, 1);
}

TEST(SessionCache, ConstructionRejectsAPartitionOfAnotherSize) {
  // analyze() and acquire() reach the engine without solve()'s check: the
  // engine itself must refuse a part map sized for another graph (longer:
  // out-of-bounds reads; shorter: a bogus shortcut cached), and the session
  // keeps answering well-formed requests.
  Graph g = gen::grid(8, 8).graph();
  Session s(g);
  for (std::size_t size : {std::size_t{100}, std::size_t{10}}) {
    const Partition wrong(std::vector<PartId>(size, 0));
    EXPECT_THROW((void)s.analyze(wrong), InvariantViolation) << size;
    EXPECT_THROW((void)s.core_ptr()->acquire(wrong, true), InvariantViolation)
        << size;
    EXPECT_EQ(s.cache_size(), 0u) << size;
  }
  Rng rng(5);
  Partition parts = voronoi_partition(g, 5, rng);
  BuildResult br = s.analyze(parts);
  EXPECT_EQ(br.shortcut.edges_of_part.size(), 5u);
  EXPECT_EQ(s.cache_size(), 1u);
}

TEST(SessionCache, EvictionCounterSurfacesChurnPressure) {
  Graph g = gen::grid(8, 8).graph();
  Rng rng(29);
  Partition a = voronoi_partition(g, 3, rng);
  Partition b = voronoi_partition(g, 5, rng);
  Partition c = voronoi_partition(g, 7, rng);
  congest::SessionConfig cfg;
  cfg.cache_capacity = 2;
  Session s(g, greedy_certificate(), std::move(cfg));
  RunReport first = s.solve(congest::Aggregate{a, ramp_values(64)});
  EXPECT_EQ(first.cache_evictions, 0);
  (void)s.solve(congest::Aggregate{b, ramp_values(64)});
  RunReport third = s.solve(congest::Aggregate{c, ramp_values(64)});
  EXPECT_EQ(third.cache_evictions, 1);  // this run's insert pushed `a` out
  EXPECT_EQ(s.cache_evictions(), 1);
  EXPECT_EQ(s.core_ptr()->cache_evictions(), 1);
  // The counter is part of the canonical report JSON (mnsctl solve output,
  // baseline diffs).
  EXPECT_NE(io::run_report_to_json(third).find("\"cache_evictions\": 1"),
            std::string::npos);
  // A hit run evicts nothing.
  RunReport again_c = s.solve(congest::Aggregate{c, ramp_values(64)});
  EXPECT_EQ(again_c.cache_hits, 1);
  EXPECT_EQ(again_c.cache_evictions, 0);
  EXPECT_EQ(s.cache_evictions(), 1);
}

// --- partition fingerprints (the cache key, DESIGN.md §5) -----------------

TEST(PartitionFingerprint, GoldenValuesAreStable) {
  // Pinned FNV-1a values: a silent change to the fingerprint recipe would
  // orphan every snapshot's cache section (restore re-keys by fingerprint),
  // so the recipe is part of the persistence contract.
  const std::vector<PartId> parts{0, 0, 1, 1, kNoPart};
  EXPECT_EQ(congest::SolverCore::partition_fingerprint(2, parts),
            0xa69512bc3d6648bfULL);
  const std::vector<PartId> single{0};
  EXPECT_EQ(congest::SolverCore::partition_fingerprint(1, single),
            0x392209f14dea4c24ULL);
}

TEST(PartitionFingerprint, SensitiveToEveryInput) {
  const std::vector<PartId> base{0, 0, 1, 1, kNoPart};
  const std::uint64_t key = congest::SolverCore::partition_fingerprint(2, base);
  // num_parts is mixed in even when part_of is unchanged.
  EXPECT_NE(congest::SolverCore::partition_fingerprint(3, base), key);
  // Moving a vertex between parts, relabeling the parts, or covering a
  // previously uncovered vertex all re-key (no false cache hits).
  const std::vector<PartId> permuted{0, 1, 0, 1, kNoPart};
  EXPECT_NE(congest::SolverCore::partition_fingerprint(2, permuted), key);
  const std::vector<PartId> relabeled{1, 1, 0, 0, kNoPart};
  EXPECT_NE(congest::SolverCore::partition_fingerprint(2, relabeled), key);
  const std::vector<PartId> covered{0, 0, 1, 1, 1};
  EXPECT_NE(congest::SolverCore::partition_fingerprint(2, covered), key);
}

TEST(SessionReport, PayloadAccessorsAreChecked) {
  Graph g = gen::grid(5, 5).graph();
  Rng rng(43);
  std::vector<Weight> w = gen::unique_random_weights(g, rng);
  Session s(g);
  RunReport rep = s.solve(congest::Mst{w});
  EXPECT_NO_THROW((void)rep.mst());
  EXPECT_THROW((void)rep.sssp(), InvariantViolation);
  EXPECT_THROW((void)rep.min_cut(), InvariantViolation);
  EXPECT_THROW((void)rep.bfs(), InvariantViolation);
  EXPECT_THROW((void)rep.aggregate(), InvariantViolation);
}

}  // namespace
}  // namespace mns
