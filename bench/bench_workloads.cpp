// E22 (the workload catalogue): the two new VertexProgram workloads — Luby
// MIS and span-greedy dominating set — plus LDD as a second partition
// source, on all four certificate families (planar, treewidth, apex,
// clique-sum). Three claims, each deterministic so the committed baseline
// (bench/baselines/workloads.json) pins it:
//
//   (a) mis — the distributed MIS is a correct maximal independent set
//       (oracle-checked), its size tracks the sequential greedy, and its
//       round count is exactly 2 rounds/phase + the farewell tail.
//   (b) domset — the distributed dominating set covers the graph and stays
//       within 3x of the sequential greedy oracle on every family (the
//       bounded-degeneracy contract of DESIGN.md §13); |D| is the value the
//       NETWORK convergecast to the root, cross-checked here.
//   (c) ldd-source — solving mst / sssp.approx with
//       SolveOptions::partition = kLdd makes every workload partition
//       project from ONE cached LDD shortcut: the cold solve pays exactly
//       one build, every repeat is all-hits with zero construction charges,
//       and the answers are bit-identical to the default-source runs.
//
// Exits nonzero on any violation, so CI catches regressions.
//
// Set MNS_BENCH_SMOKE=1 to run the smallest instance per family (CI).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_instances.hpp"
#include "bench_util.hpp"
#include "congest/dominating_set.hpp"
#include "congest/mis.hpp"
#include "congest/session.hpp"
#include "gen/apex.hpp"
#include "io/report_json.hpp"

using namespace mns;

namespace {

struct Instance {
  std::string family;
  Graph graph;
  std::vector<Weight> weights;
  StructuralCertificate cert;
};

std::vector<Instance> instances(bool smoke) {
  std::vector<Instance> out;
  for (int side : smoke ? std::vector<int>{12} : std::vector<int>{12, 24}) {
    Graph g = gen::grid(side, side).graph();
    Rng rng(static_cast<unsigned>(side));
    std::vector<Weight> w = bench::dfs_light_weights(g, rng);
    out.push_back({"planar", std::move(g), std::move(w),
                   greedy_certificate()});
  }
  for (VertexId n : smoke ? std::vector<VertexId>{128}
                          : std::vector<VertexId>{128, 512}) {
    Rng rng(static_cast<unsigned>(n));
    bench::HubbedKPath kt = bench::hubbed_kpath(n, 3);
    std::vector<Weight> w = bench::spine_light_weights(kt.graph, n, rng);
    out.push_back({"treewidth", std::move(kt.graph), std::move(w),
                   treewidth_certificate(std::move(kt.decomposition))});
  }
  for (int side : smoke ? std::vector<int>{12} : std::vector<int>{12, 24}) {
    Rng rng(static_cast<unsigned>(100 + side));
    gen::ApexResult ar =
        gen::add_apices(gen::grid(side, side).graph(), 1, 0.10, rng);
    std::vector<Weight> w = bench::dfs_light_weights(ar.graph, rng);
    out.push_back({"apex", std::move(ar.graph), std::move(w),
                   apex_certificate(ar.apices)});
  }
  for (int bags : smoke ? std::vector<int>{4} : std::vector<int>{4, 12}) {
    Rng rng(static_cast<unsigned>(bags));
    bench::ApexChain chain = bench::apexed_chain_cliquesum(bags, rng);
    StructuralCertificate cert = bench::apex_chain_certificate(chain);
    out.push_back({"cliquesum", std::move(chain.graph),
                   std::move(chain.weights), std::move(cert)});
  }
  return out;
}

congest::WorkloadParams params_for(const Instance& inst) {
  congest::WorkloadParams p;
  p.weights = inst.weights;
  p.epsilon = 0.25;
  const VertexId n = inst.graph.num_vertices();
  p.num_seeds = std::max<VertexId>(
      8, static_cast<VertexId>(std::sqrt(static_cast<double>(n))) / 8);
  p.repartition_growth = 1.0;
  p.wavefront_seeds = false;  // source-independent cells: cacheable
  return p;
}

VertexId popcount(const std::vector<char>& member) {
  VertexId c = 0;
  for (char m : member) c += (m != 0) ? 1 : 0;
  return c;
}

/// (a) mis: oracle-verified maximality + greedy size tracking.
bool run_mis(bench::JsonReport& report, const Instance& inst) {
  const VertexId n = inst.graph.num_vertices();
  congest::Session session = bench::make_session(inst.graph, inst.cert);
  congest::RunReport r = session.solve("mis", params_for(inst));
  const congest::MisPayload& p = r.mis();

  const std::string verdict =
      congest::verify_maximal_independent_set(inst.graph, p.in_mis);
  const VertexId oracle = popcount(congest::greedy_mis(inst.graph));
  const bool ok = verdict.empty() && p.size == popcount(p.in_mis) &&
                  p.size > 0 && oracle > 0;
  std::printf("%-10s n=%6d  mis     |I|=%5d greedy=%5d phases=%3d "
              "rounds=%5lld messages=%8lld  %s\n",
              inst.family.c_str(), n, p.size, oracle, r.phases, r.rounds,
              r.messages, ok ? "verified" : verdict.c_str());
  report.row().set("mode", "mis").set("family", inst.family).set("n", n)
      .set("size", static_cast<long long>(p.size))
      .set("greedy_size", static_cast<long long>(oracle))
      .set_run(r).set("verified", ok ? "yes" : "no");
  return ok;
}

/// (b) domset: oracle-verified coverage within 3x of the sequential greedy.
bool run_domset(bench::JsonReport& report, const Instance& inst) {
  const VertexId n = inst.graph.num_vertices();
  congest::Session session = bench::make_session(inst.graph, inst.cert);
  congest::RunReport r = session.solve("domset", params_for(inst));
  const congest::DomsetPayload& p = r.domset();

  const std::string verdict =
      congest::verify_dominating_set(inst.graph, p.in_set);
  const VertexId oracle = popcount(congest::greedy_dominating_set(inst.graph));
  const bool within = p.size <= 3 * oracle;
  const bool ok = verdict.empty() && p.size == popcount(p.in_set) && within;
  std::printf("%-10s n=%6d  domset  |D|=%5d greedy=%5d phases=%3d "
              "rounds=%5lld messages=%8lld  %s\n",
              inst.family.c_str(), n, p.size, oracle, r.phases, r.rounds,
              r.messages,
              ok ? "verified" : (within ? verdict.c_str() : "RATIO-BLOWN"));
  report.row().set("mode", "domset").set("family", inst.family).set("n", n)
      .set("size", static_cast<long long>(p.size))
      .set("greedy_size", static_cast<long long>(oracle))
      .set_run(r).set("verified", ok ? "yes" : "no");
  return ok;
}

/// (c) ldd-source: cold pays one LDD build; every repeat is free; answers
/// bit-identical to the default partition source.
bool run_ldd_source(bench::JsonReport& report, const Instance& inst) {
  const VertexId n = inst.graph.num_vertices();
  const congest::WorkloadParams params = params_for(inst);
  congest::SolveOptions ldd_opt;
  ldd_opt.partition = congest::PartitionSource::kLdd;

  // Reference answers from a plain (workload-source) session.
  congest::Session ref_session = bench::make_session(inst.graph, inst.cert);
  congest::RunReport ref_mst = ref_session.solve("mst", params);
  congest::RunReport ref_sssp = ref_session.solve("sssp.approx", params);

  congest::Session session = bench::make_session(inst.graph, inst.cert);
  bool ok = true;
  const char* stages[] = {"mst", "sssp.approx"};
  for (const char* stage : stages) {
    congest::RunReport cold = session.solve(stage, params, ldd_opt);
    congest::RunReport warm = session.solve(stage, params, ldd_opt);
    const bool one_build = cold.cache_misses <= 1;
    const bool free_repeat = warm.charged_construction_rounds == 0 &&
                             warm.cache_misses == 0 && warm.cache_hits > 0 &&
                             warm.rounds == cold.rounds;
    bool same_answer = false;
    if (std::string(stage) == "mst")
      same_answer = warm.mst().edges == ref_mst.mst().edges;
    else
      same_answer = warm.sssp().dist == ref_sssp.sssp().dist;
    ok = ok && one_build && free_repeat && same_answer;
    std::printf("%-10s n=%6d  ldd %-12s cold: charged=%5lld builds=%lld   "
                "warm: charged=%lld hits=%3lld  %s\n",
                inst.family.c_str(), n, stage,
                cold.charged_construction_rounds, cold.cache_misses,
                warm.charged_construction_rounds, warm.cache_hits,
                one_build && free_repeat
                    ? (same_answer ? "bit-identical" : "ANSWER-DRIFT")
                    : "CACHE-MISSED");
    report.row().set("mode", "ldd-source").set("family", inst.family)
        .set("n", n).set("workload", stage)
        .set("cold_charged", cold.charged_construction_rounds)
        .set("cold_builds", cold.cache_misses)
        .set("cold_rounds", cold.rounds)
        .set("cold_messages", cold.messages)
        .set("warm_charged", warm.charged_construction_rounds)
        .set("warm_hits", warm.cache_hits)
        .set("warm_rounds", warm.rounds)
        .set("verified", ok ? "yes" : "no");
  }
  return ok;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("MNS_BENCH_SMOKE") != nullptr;
  bench::header("E22: workload catalogue (mis / domset / ldd partition source)");
  bench::JsonReport report("workloads");
  std::printf("oracle-checked MIS + dominating set, LDD-projected shortcut "
              "reuse; smoke=%d\n\n", smoke);
  bool all_ok = true;
  for (const Instance& inst : instances(smoke)) {
    all_ok &= run_mis(report, inst);
    all_ok &= run_domset(report, inst);
    all_ok &= run_ldd_source(report, inst);
  }
  all_ok &= report.write();
  std::printf("\n%s\n", all_ok
                  ? "all workloads oracle-verified; LDD-sourced repeats are "
                    "construction-free and bit-identical"
                  : "FAILURE: see rows above");
  return all_ok ? 0 : 1;
}
