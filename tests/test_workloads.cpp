// Workload-catalogue tests (DESIGN.md §13): the MIS and dominating-set
// VertexPrograms against their sequential oracles, the LDD partition source
// (validity, determinism, and the cache economics of kLdd provenance), and
// the catalogue's unknown-name error, which names its offender.
//
// Determinism bar: "mis" and "domset" RunReports are bit-identical at thread
// widths {1, 2, 4, 8} (everything but `threads`/`wall_ms`) and across a
// 2-rank loopback SocketTransport — the same parity discipline test_session
// and test_transport pin for the older workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "congest/dominating_set.hpp"
#include "congest/mis.hpp"
#include "congest/session.hpp"
#include "core/ldd.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "io/report_json.hpp"
#include "transport/loopback.hpp"

namespace mns {
namespace {

using congest::RunReport;
using congest::Session;
using congest::SolveOptions;
using congest::WorkloadParams;

struct FamilyCase {
  std::string name;
  Graph graph;
  StructuralCertificate cert;
};

/// One instance per certificate family (the same four shapes the transport
/// suite drives), sized so every workload runs several phases.
std::vector<FamilyCase> workload_families() {
  std::vector<FamilyCase> out;
  Rng rng(43);
  out.push_back({"grid", gen::grid(7, 7).graph(), greedy_certificate()});
  {
    gen::KTreeResult kt = gen::random_ktree(60, 3, rng);
    out.push_back(
        {"ktree3", kt.graph, treewidth_certificate(kt.decomposition)});
  }
  {
    gen::ApexResult ar = gen::add_apices(gen::grid(6, 6).graph(), 1, 0.2, rng);
    out.push_back({"grid+apex", ar.graph, apex_certificate(ar.apices)});
  }
  {
    Graph bag = gen::triangulated_grid(3, 3).graph();
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < 3; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
    gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
    out.push_back(
        {"cliquesum", cs.graph, cliquesum_certificate(cs.decomposition)});
  }
  return out;
}

VertexId popcount(const std::vector<char>& membership) {
  VertexId c = 0;
  for (char x : membership)
    if (x) ++c;
  return c;
}

/// Bit-identical modulo the execution-only fields (thread width, wall
/// clock) — the parity equivalence the round engine guarantees.
bool same_modulo_execution(RunReport a, RunReport b) {
  a.threads = b.threads = 1;
  a.wall_ms = b.wall_ms = 0.0;
  return io::run_reports_identical(a, b);
}

// ------------------------------------------------------------------- MIS

TEST(MisWorkload, OracleVerifiedOnEveryFamily) {
  for (const FamilyCase& fam : workload_families()) {
    SCOPED_TRACE(fam.name);
    Session s(fam.graph, fam.cert);
    RunReport r = s.solve("mis", WorkloadParams{});
    const congest::MisPayload& p = r.mis();
    EXPECT_EQ(congest::verify_maximal_independent_set(fam.graph, p.in_mis), "");
    EXPECT_EQ(p.size, popcount(p.in_mis));
    EXPECT_GT(p.size, 0);
    EXPECT_GT(r.phases, 0);
    // Two rounds per phase, plus nothing else.
    EXPECT_LE(r.rounds, 2LL * r.phases);
    // A maximal independent set is at least as large as any independent
    // set's lower bound: the greedy oracle gives a sanity anchor on size.
    const std::vector<char> oracle = congest::greedy_mis(fam.graph);
    EXPECT_EQ(congest::verify_maximal_independent_set(fam.graph, oracle), "");
  }
}

TEST(MisWorkload, SeedChangesPrioritiesDeterministically) {
  // Pure-hash priorities: same (seed, phase, v) = same value, different seed
  // or phase = decorrelated stream.
  EXPECT_EQ(congest::mis_priority(7, 0, 3), congest::mis_priority(7, 0, 3));
  EXPECT_NE(congest::mis_priority(7, 0, 3), congest::mis_priority(8, 0, 3));
  EXPECT_NE(congest::mis_priority(7, 0, 3), congest::mis_priority(7, 1, 3));
  // And the resulting MIS is reproducible per seed.
  Graph g = gen::grid(9, 9).graph();
  Session a(g), b(g);
  WorkloadParams p;
  p.seed = 12345;
  RunReport ra = a.solve("mis", p);
  RunReport rb = b.solve("mis", p);
  EXPECT_TRUE(io::run_reports_identical(ra, rb));
}

/// An independent sequential Luby with the step structure of SNIPPETS.md's
/// `fast_mis_2`: each phase every undecided vertex draws
/// mis_priority(seed, phase, v) and wins when no undecided neighbour
/// outranks it (a larger priority, or an equal one and a smaller id); the
/// winners join and their undecided neighbours drop out.
struct SequentialLuby {
  std::vector<char> in_mis;
  int phases = 0;
};

SequentialLuby sequential_luby(const Graph& g, std::uint64_t seed) {
  enum : char { kUndecided, kIn, kOut };
  std::vector<char> state(static_cast<std::size_t>(g.num_vertices()),
                          kUndecided);
  SequentialLuby out;
  while (std::find(state.begin(), state.end(), kUndecided) != state.end()) {
    std::vector<VertexId> winners;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (state[v] != kUndecided) continue;
      const std::int64_t mine = congest::mis_priority(seed, out.phases, v);
      bool wins = true;
      for (VertexId u : g.neighbors(v)) {
        if (state[u] != kUndecided) continue;
        const std::int64_t theirs = congest::mis_priority(seed, out.phases, u);
        if (theirs > mine || (theirs == mine && u < v)) wins = false;
      }
      if (wins) winners.push_back(v);
    }
    for (VertexId v : winners) state[v] = kIn;
    for (VertexId v : winners)
      for (VertexId u : g.neighbors(v))
        if (state[u] == kUndecided) state[u] = kOut;
    ++out.phases;
  }
  for (char s : state) out.in_mis.push_back(s == kIn ? 1 : 0);
  return out;
}

TEST(MisWorkload, SequentialLubyReproducesTheProgramExactly) {
  for (const FamilyCase& fam : workload_families()) {
    for (std::uint64_t seed : {1u, 3u, 7u, 99u}) {
      SCOPED_TRACE(fam.name + " seed " + std::to_string(seed));
      congest::Simulator sim(fam.graph);
      RunReport report;
      congest::PhaseMeter meter(sim, report);
      const congest::MisPayload got =
          congest::luby_mis(congest::Mis{seed}, meter);
      const SequentialLuby want = sequential_luby(fam.graph, seed);
      EXPECT_EQ(got.in_mis, want.in_mis);
      EXPECT_EQ(report.phases, want.phases);
    }
  }
}

// -------------------------------------------------------- dominating set

TEST(DomsetWorkload, OracleBoundedOnEveryFamily) {
  for (const FamilyCase& fam : workload_families()) {
    SCOPED_TRACE(fam.name);
    Session s(fam.graph, fam.cert);
    RunReport r = s.solve("domset", WorkloadParams{});
    const congest::DomsetPayload& p = r.domset();
    EXPECT_EQ(congest::verify_dominating_set(fam.graph, p.in_set), "");
    EXPECT_EQ(p.size, popcount(p.in_set));
    EXPECT_GT(p.size, 0);
    EXPECT_GT(r.phases, 0);
    // Approximation contract: within a small constant of the sequential
    // greedy (the exact per-family sizes are pinned by bench_sessions' E22).
    const std::vector<char> oracle = congest::greedy_dominating_set(fam.graph);
    EXPECT_EQ(congest::verify_dominating_set(fam.graph, oracle), "");
    const VertexId oracle_size = popcount(oracle);
    EXPECT_GE(oracle_size, 1);
    EXPECT_LE(p.size, 3 * oracle_size);
  }
}

// ---------------------------------------------------- determinism parity

TEST(WorkloadParity, BitIdenticalAcrossThreadWidths) {
  for (const FamilyCase& fam : workload_families()) {
    for (const char* workload : {"mis", "domset"}) {
      SCOPED_TRACE(fam.name + std::string("/") + workload);
      congest::SessionConfig seq_cfg;
      Session seq(fam.graph, fam.cert, std::move(seq_cfg));
      RunReport ref = seq.solve(workload, WorkloadParams{});
      EXPECT_EQ(ref.threads, 1);
      for (int width : {2, 4, 8}) {
        congest::SessionConfig cfg;
        cfg.execution.threads = width;
        Session par(fam.graph, fam.cert, std::move(cfg));
        RunReport r = par.solve(workload, WorkloadParams{});
        EXPECT_EQ(r.threads, width);
        EXPECT_TRUE(same_modulo_execution(ref, r)) << "width " << width;
      }
    }
  }
}

TEST(WorkloadParity, BitIdenticalOverTwoRankSocketTransport) {
  const int ranks = 2;
  for (const FamilyCase& fam : workload_families()) {
    for (const char* workload : {"mis", "domset"}) {
      SCOPED_TRACE(fam.name + std::string("/") + workload);
      Session ref_session(fam.graph, fam.cert);
      RunReport ref = ref_session.solve(workload, WorkloadParams{});

      auto cluster = transport::make_loopback_cluster(
          fam.graph, ranks, transport::SocketTransportConfig{},
          transport::FaultConfig{});
      std::vector<RunReport> reports(static_cast<std::size_t>(ranks));
      std::vector<std::string> errors(static_cast<std::size_t>(ranks));
      std::vector<std::thread> threads;
      for (int r = 0; r < ranks; ++r) {
        threads.emplace_back([&, r] {
          try {
            Session session(fam.graph, fam.cert);
            session.set_transport(cluster[static_cast<std::size_t>(r)].get());
            reports[static_cast<std::size_t>(r)] =
                session.solve(workload, WorkloadParams{});
            session.set_transport(nullptr);
            cluster[static_cast<std::size_t>(r)]->shutdown();
          } catch (const std::exception& e) {
            errors[static_cast<std::size_t>(r)] = e.what();
          }
        });
      }
      for (std::thread& t : threads) t.join();
      for (int r = 0; r < ranks; ++r) {
        ASSERT_EQ(errors[static_cast<std::size_t>(r)], "") << "rank " << r;
        EXPECT_TRUE(io::run_reports_identical(
            ref, reports[static_cast<std::size_t>(r)]))
            << "rank " << r;
      }
    }
  }
}

// ----------------------------------------------------------------- LDD

TEST(Ldd, ValidAndDeterministicOnEveryFamily) {
  for (const FamilyCase& fam : workload_families()) {
    SCOPED_TRACE(fam.name);
    LddDecomposition a = ldd_decompose(fam.graph);
    EXPECT_EQ(validate_ldd(fam.graph, a), "");
    EXPECT_GT(a.parts.num_parts(), 0);
    EXPECT_GE(a.radius, 0);
    // Same options = bit-identical decomposition (the committed-baseline
    // contract: integer-only hash arithmetic, no libm in the draws).
    LddDecomposition b = ldd_decompose(fam.graph);
    EXPECT_TRUE(std::equal(a.parts.part_of_all().begin(),
                           a.parts.part_of_all().end(),
                           b.parts.part_of_all().begin(),
                           b.parts.part_of_all().end()));
    EXPECT_EQ(a.center, b.center);
    EXPECT_EQ(a.radius, b.radius);
    EXPECT_EQ(a.cut_edges, b.cut_edges);
    // Other knobs still produce valid decompositions.
    LddOptions tight;
    tight.beta = 0.5;
    tight.seed = 99;
    LddDecomposition c = ldd_decompose(fam.graph, tight);
    EXPECT_EQ(validate_ldd(fam.graph, c), "");
  }
}

TEST(Ldd, ForestDistancesAreRealPathLengths) {
  Graph g = gen::grid(8, 8).graph();
  Rng rng(7);
  std::vector<Weight> w = gen::unique_random_weights(g, rng);
  LddDecomposition ldd = ldd_decompose(g);
  std::vector<Weight> cdist = ldd_forest_distances(ldd, g, w);
  ASSERT_EQ(cdist.size(), static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (ldd.parent[sv] == kInvalidVertex) {
      EXPECT_EQ(cdist[sv], 0);  // centers
    } else {
      // One forest hop: child distance = parent distance + edge weight.
      EXPECT_EQ(cdist[sv],
                cdist[static_cast<std::size_t>(ldd.parent[sv])] +
                    w[static_cast<std::size_t>(ldd.parent_edge[sv])]);
    }
  }
}

// ------------------------------------------------- LDD partition source

TEST(LddPartitionSource, RepeatedMstSolvesHitTheSameCacheEntry) {
  for (const FamilyCase& fam : workload_families()) {
    SCOPED_TRACE(fam.name);
    Rng wrng(71);
    std::vector<Weight> w = gen::unique_random_weights(fam.graph, wrng);
    Session s(fam.graph, fam.cert);
    SolveOptions ldd_opt;
    ldd_opt.partition = congest::PartitionSource::kLdd;

    RunReport cold = s.solve(congest::Mst{w}, ldd_opt);
    // Every aggregation resolves to the ONE LDD shortcut: exactly one miss
    // builds it, everything after (and every later solve) hits.
    EXPECT_EQ(cold.cache_misses, 1);
    EXPECT_EQ(s.cache_size(), 1u);

    RunReport warm = s.solve(congest::Mst{w}, ldd_opt);
    EXPECT_GT(warm.cache_hits, 0);
    EXPECT_EQ(warm.cache_misses, 0);
    EXPECT_EQ(warm.charged_construction_rounds, 0);
    EXPECT_EQ(warm.rounds, cold.rounds);
    EXPECT_EQ(warm.mst().edges, cold.mst().edges);

    // The MST itself does not depend on where the shortcuts came from:
    // shortcuts change round counts, never payloads.
    Session plain(fam.graph, fam.cert);
    RunReport base = plain.solve(congest::Mst{w});
    EXPECT_EQ(base.mst().edges, cold.mst().edges);
    EXPECT_EQ(base.mst().fragment_of, cold.mst().fragment_of);
  }
}

TEST(LddPartitionSource, ApproxSsspPinnedCellsAreCacheHitsWhenWarm) {
  for (const FamilyCase& fam : workload_families()) {
    SCOPED_TRACE(fam.name);
    Rng wrng(73);
    std::vector<Weight> w = gen::unique_random_weights(fam.graph, wrng);
    Session s(fam.graph, fam.cert);
    SolveOptions ldd_opt;
    ldd_opt.partition = congest::PartitionSource::kLdd;
    congest::ApproxSssp q{w, 0};

    RunReport cold = s.solve(q, ldd_opt);
    EXPECT_EQ(cold.cache_misses, 1);
    EXPECT_EQ(cold.phases, 1);  // pinned cells never repartition

    RunReport warm = s.solve(q, ldd_opt);
    EXPECT_GT(warm.cache_hits, 0);
    EXPECT_EQ(warm.cache_misses, 0);
    EXPECT_EQ(warm.charged_construction_rounds, 0);
    EXPECT_EQ(warm.sssp().dist, cold.sssp().dist);

    // Quiescence under the rounded weights is exact whatever the cells:
    // the distances equal the default wavefront-partition run's.
    Session plain(fam.graph, fam.cert);
    RunReport base = plain.solve(q);
    EXPECT_EQ(base.sssp().dist, cold.sssp().dist);

    // A DIFFERENT source over the same core still hits the one LDD entry.
    congest::ApproxSssp q2{w, fam.graph.num_vertices() / 2};
    RunReport other = s.solve(q2, ldd_opt);
    EXPECT_GT(other.cache_hits, 0);
    EXPECT_EQ(other.cache_misses, 0);
    EXPECT_EQ(other.charged_construction_rounds, 0);
  }
}

// ------------------------------------------------------------- registry

TEST(WorkloadRegistry, BuiltinNamesAreTheCatalogue) {
  const std::vector<std::string> expected = {
      "bfs", "domset", "mincut", "mis",
      "mst", "mst.ghs", "sssp.approx", "sssp.exact"};
  EXPECT_EQ(congest::builtin_workload_names(), expected);
}

TEST(WorkloadRegistry, UnknownWorkloadThrowsNamingTheOffender) {
  Graph g = gen::grid(4, 4).graph();
  Session s(g);
  try {
    (void)s.solve("nosuch", WorkloadParams{});
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("nosuch"), std::string::npos);
  }
  congest::SolveHandle h(s.core_ptr());
  try {
    (void)h.solve("nosuch.either", WorkloadParams{});
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("nosuch.either"), std::string::npos);
  }
}

}  // namespace
}  // namespace mns
