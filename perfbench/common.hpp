// Shared plumbing of the perfbench binary: command-line options, timing and
// order statistics, the result record every workload fills, the seeded
// instance generators, and the sequential oracles every answer is checked
// against. Everything here sits OUTSIDE the library: the benchmark only
// calls public entry points (Session, SolveHandle, QueryServer, transports).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "congest/session.hpp"
#include "core/certificate.hpp"
#include "graph/graph.hpp"

namespace perfbench {

using namespace mns;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "tiny" shrinks every instance for the self-test; "full" is the
  /// benchmark proper.
  bool tiny = false;
};

// ------------------------------------------------------------ statistics --

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The tail statistic: a fixed percentile per workload, chosen so that at
/// least ten samples lie beyond it at the workload's request rate (a
/// percentile that moved with the sample count would change meaning
/// between runs). `beyond` reports how many actually did.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly above `value`
};
[[nodiscard]] Tail tail_of(const std::vector<double>& v, double percentile);

/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

// ---------------------------------------------------------------- result --

/// What one workload run reports. End-to-end metrics are filled by the
/// untraced loop; per-layer metrics by the traced pass (--trace 1). Names
/// are the ones BENCHMARK.json lists.
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Human-readable lines printed before the JSON result line.
  std::vector<std::string> notes;

  void fail(const std::string& why);
};

/// Per-request latency bookkeeping shared by the three workloads.
struct LoopStats {
  double tail_percentile = 90.0;   ///< see Tail
  std::vector<double> latency_ms;  ///< one entry per completed request
  /// When each request completed, in ms on a clock that starts with the loop
  /// and stops while answers are being checked.
  std::vector<double> done_ms;
  long long prefix_rounds = 0;     ///< total_rounds over the fixed prefix
  long long prefix_messages = 0;
  long long prefix_requests = 0;

  /// Fills latency_p50_ms, latency_tail_ms, throughput_rps,
  /// rounds_per_request, messages_per_request and peak_rss_mib.
  void finish(Result& out) const;
};

// ------------------------------------------------------------- instances --

/// One network with its structural certificate and distinct edge weights.
struct Instance {
  std::string family;
  Graph graph;
  StructuralCertificate cert;
  std::vector<Weight> weights;
};

/// n ~ 1024-vertex planar / treewidth / apex / clique-sum networks (the
/// serving mix of bench_serve), all derived from `seed`. `tiny` gives the
/// ~100-vertex shapes.
[[nodiscard]] std::vector<Instance> serve_instances(std::uint64_t seed,
                                                    bool tiny);

/// Two each of the planar grid and the apexed clique-sum chain (bench_scale's
/// two families) at the churn size.
[[nodiscard]] std::vector<Instance> churn_instances(std::uint64_t seed,
                                                    bool tiny);

/// Two each of bench_transport's planar grid and random 3-tree (n ~ 512-576).
[[nodiscard]] std::vector<Instance> dist_instances(std::uint64_t seed,
                                                   bool tiny);

/// Session config every workload uses: center BFS tree (seed 1), threads=1.
[[nodiscard]] congest::SessionConfig session_config();

// --------------------------------------------------------------- oracles --

/// Each returns "" when the report's answer is correct, else a description.
[[nodiscard]] std::string check_mst(const Graph& g,
                                    const std::vector<Weight>& w,
                                    const congest::RunReport& r);
[[nodiscard]] std::string check_sssp(const Graph& g,
                                     const std::vector<Weight>& w,
                                     VertexId source, double epsilon,
                                     const congest::RunReport& r);
/// Tree packing over 1-respecting cuts is a 2-approximation: checked as
/// Stoer-Wagner <= value <= 2 * Stoer-Wagner + 1, like the repository's tests.
[[nodiscard]] std::string check_mincut(const Graph& g,
                                       const std::vector<Weight>& w,
                                       const congest::RunReport& r);
[[nodiscard]] std::string check_mis(const Graph& g,
                                    const congest::RunReport& r);

// ------------------------------------------------------------- workloads --

/// Each runs its workload for opt.seconds and returns the untraced
/// end-to-end metrics; with opt.trace it also runs the traced pass and
/// fills the per-layer metrics.
[[nodiscard]] Result run_churn(const Options& opt);
[[nodiscard]] Result run_serve(const Options& opt);
[[nodiscard]] Result run_dist(const Options& opt);

/// How many times each run repeats its set-up (setup_s is the median).
[[nodiscard]] inline int setup_repeats(const Options& opt) {
  return opt.tiny ? 2 : 3;
}

}  // namespace perfbench
