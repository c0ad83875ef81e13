// The workload vocabulary (DESIGN.md §5): what every solve is asked, what
// it answers, and how its run is accounted, whichever surface issues it
// (Session, SolveHandle, serve::QueryServer, mnsctl).
//
// Each workload is defined here once: its request struct (knobs and their
// defaults), its payload, and the RunReport alternative that carries it.
// The algorithm headers (mst.hpp, mincut.hpp, sssp.hpp, mis.hpp,
// dominating_set.hpp, bfs.hpp) include this one: every entry point takes
// its request (or its weights), the ShortcutSource where it aggregates, and
// one PhaseMeter, and returns its payload. The PhaseMeter is the run
// accounting: the only place that opens and closes a phase, emits its
// RoundTrace, and adds phases, aggregations and charged rounds to the
// RunReport.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "congest/aggregation.hpp"
#include "congest/simulator.hpp"

namespace mns::congest {

// ---------------------------------------------------------------- workloads

/// Distributed MST (Boruvka over shortcut-backed aggregations).
struct Mst {
  std::vector<Weight> weights;
};

/// The O~(D + sqrt(n)) controlled-GHS MST baseline over the core tree.
struct GhsMst {
  std::vector<Weight> weights;
};

/// (2+eps)/(1+eps) min cut via greedy tree packing.
struct MinCut {
  std::vector<Weight> weights;
  int num_trees = 8;
  /// Score each packing tree by its best 2-respecting cut (Thorup's (1+eps)
  /// guarantee) instead of 1-respecting only (2-approx guarantee). The
  /// evaluation is centralized verifier-grade either way; the charged rounds
  /// are identical (see DESIGN.md §4).
  bool two_respecting = false;
};

/// Exact lock-step Bellman-Ford SSSP (the no-shortcut baseline).
struct ExactSssp {
  std::vector<Weight> weights;
  VertexId source = 0;
};

/// (1+eps)-approximate shortcut-accelerated SSSP.
struct ApproxSssp {
  std::vector<Weight> weights;
  VertexId source = 0;
  /// Approximation slack: returned distances are within (1+epsilon) of true.
  double epsilon = 0.25;
  VertexId num_seeds = 0;  ///< Voronoi cells per phase; 0 = ceil(sqrt(n))
  /// Wavefront cells only: re-partition once this fraction of vertices
  /// joined the wavefront since the current partition was built (the
  /// scale-phase trigger). Stride and LDD cells are built once per run.
  double repartition_growth = 0.5;
  /// false = source-independent cells: identical partitions across a k-source
  /// batch, so the shared cache pays construction once (DESIGN.md §5, §10).
  bool wavefront_seeds = true;
};

/// Distributed BFS tree construction by flooding (the O(D) primitive).
struct Bfs {
  VertexId root = 0;
};

/// Luby-style randomized-priority maximal independent set (congest/mis.hpp).
/// Priorities are pure hashes of (seed, phase, vertex): rounds, messages and
/// membership are bit-identical at every thread width and across transports.
struct Mis {
  std::uint64_t seed = 1;
};

/// Parallel span-greedy dominating set (congest/dominating_set.hpp): the
/// distance-2 span maxima join each phase; |D| is convergecast to the core
/// tree root.
struct DominatingSet {};

/// One part-wise min aggregation over an explicit partition (Definition 9) —
/// the primitive every workload above is built from. Repeated aggregations
/// over the same partition (e.g. periodic per-zone sensor queries) hit the
/// shortcut cache.
struct Aggregate {
  Partition parts;
  std::vector<AggValue> values;
};

// ----------------------------------------------------------------- payloads
//
// Each payload compares field by field (io::run_reports_identical).

struct MstPayload {
  std::vector<EdgeId> edges;
  std::vector<PartId> fragment_of;  ///< dense fragment labels after the run
  bool operator==(const MstPayload&) const = default;
};
struct MinCutPayload {
  Weight value = 0;  ///< best respecting cut over the packing
  int trees = 0;
  bool operator==(const MinCutPayload&) const = default;
};
struct SsspPayload {
  /// Weighted distance from the source under the (possibly rounded)
  /// weights; kUnreachedWeight for vertices in other components.
  std::vector<Weight> dist;
  long long jumps = 0;  ///< cluster-jump aggregations; approx only
  bool operator==(const SsspPayload&) const = default;
};
struct BfsPayload {
  std::vector<int> dist;
  std::vector<VertexId> parent;
  std::vector<EdgeId> parent_edge;
  bool operator==(const BfsPayload&) const = default;
};
struct AggregatePayload {
  std::vector<AggValue> min_of_part;
  bool operator==(const AggregatePayload&) const = default;
};
struct MisPayload {
  std::vector<char> in_mis;  ///< 1 iff the vertex is in the MIS
  VertexId size = 0;
  bool operator==(const MisPayload&) const = default;
};
struct DomsetPayload {
  std::vector<char> in_set;  ///< 1 iff the vertex joined the dominating set
  VertexId size = 0;         ///< |D| as summed at the tree root
  bool operator==(const DomsetPayload&) const = default;
};

// --------------------------------------------------------------- run report

/// Uniform telemetry for every solve(): what the run cost and what the cache
/// did, plus the problem-specific payload.
struct RunReport {
  std::string workload;  ///< registry name ("mst", "sssp.approx", ...)
  long long rounds = 0;    ///< measured communication rounds of this run
  long long messages = 0;  ///< messages sent during this run
  /// Worker threads the round engine fanned this run over (DESIGN.md §7).
  /// Purely a wall-clock knob: every other field of the report is
  /// bit-identical across thread counts (pinned by the test_session parity
  /// sweep and bench_sessions' E17).
  int threads = 1;
  /// Substitution charges for constructions paid by this run (DESIGN.md §2);
  /// cache hits re-pay nothing, so warm runs charge less than cold ones.
  long long charged_construction_rounds = 0;
  /// Phases the run opened (Boruvka phases, packing trees, scale phases,
  /// GHS, Luby and span phases; one for bfs and aggregate).
  int phases = 0;
  long long aggregations = 0;  ///< part-wise aggregations performed
  long long cache_hits = 0;    ///< shortcut-cache hits during this run
  long long cache_misses = 0;  ///< misses (constructions) during this run
  /// Cache entries this run's inserts LRU-evicted (churn pressure signal:
  /// nonzero means the working set outgrew the cache capacity).
  long long cache_evictions = 0;
  double wall_ms = 0.0;        ///< wall-clock time of the run

  std::variant<std::monostate, MstPayload, MinCutPayload, SsspPayload,
               BfsPayload, AggregatePayload, MisPayload, DomsetPayload>
      payload;

  /// Measured + charged: the round count comparisons should quote.
  [[nodiscard]] long long total_rounds() const {
    return rounds + charged_construction_rounds;
  }

  // Checked payload accessors (throw InvariantViolation on the wrong kind).
  [[nodiscard]] const MstPayload& mst() const;
  [[nodiscard]] const MinCutPayload& min_cut() const;
  [[nodiscard]] const SsspPayload& sssp() const;
  [[nodiscard]] const BfsPayload& bfs() const;
  [[nodiscard]] const AggregatePayload& aggregate() const;
  [[nodiscard]] const MisPayload& mis() const;
  [[nodiscard]] const DomsetPayload& domset() const;
};

// ------------------------------------------------------------ solve options

/// One entry of the per-phase telemetry stream (SolveOptions::trace): which
/// phase of the run consumed what.
struct RoundTrace {
  const char* stage = "";  ///< "boruvka-phase", "packing-tree", ...
  int index = 0;           ///< the phase's number within its run, from 1
  long long rounds = 0;    ///< measured communication rounds of this phase
  long long messages = 0;  ///< messages sent in this phase
  long long charged_rounds = 0;  ///< substitution charges attributed here
};
using RoundTraceHook = std::function<void(const RoundTrace&)>;

/// Where the shortcuts a solve aggregates over come from (DESIGN.md §13).
enum class PartitionSource {
  /// The workload's own partitions (Boruvka fragments, Voronoi cells, ...).
  kWorkload,
  /// The core's low-diameter decomposition: ONE weight-independent
  /// clustering whose shortcut is built (and cached) once, then projected
  /// onto whatever partition the workload aggregates over. Repeated solves —
  /// across workloads and weight vectors — share that single cache entry.
  kLdd,
};

/// Per-solve knobs shared by every workload.
struct SolveOptions {
  /// false = flooding baseline: empty shortcuts, nothing constructed or
  /// charged.
  bool use_shortcuts = true;
  /// false = cold run: bypass the cache, build every shortcut fresh (every
  /// build counts as a miss). Benches use this as the uncached baseline.
  bool use_cache = true;
  /// Per-phase telemetry stream (Boruvka phase / packing tree / scale phase
  /// / GHS phase / Luby phase / span phase). Workloads with no phase
  /// structure (ExactSssp, Bfs, single-shot Aggregate) emit nothing.
  RoundTraceHook trace;
  /// Worker threads for this solve: 0 = the handle default, 1 = sequential,
  /// N = fan each round phase over N shards, -1 = hardware_concurrency.
  /// Never changes results — only wall clock (DESIGN.md §7).
  int threads = 0;
  /// Shortcut provenance (DESIGN.md §13). kLdd makes shortcut-backed
  /// workloads aggregate over projections of the core LDD's cached
  /// shortcut; sssp.approx additionally pins its cells to the LDD clusters
  /// (never repartitions). Ignored by shortcut-free workloads.
  PartitionSource partition = PartitionSource::kWorkload;
};

/// Parameter bundle for string dispatch: the union of every built-in
/// workload's knobs, defaulted from the typed requests.
struct WorkloadParams {
  std::vector<Weight> weights;
  VertexId source = 0;  ///< SSSP source / BFS root
  int num_trees = MinCut{}.num_trees;
  bool two_respecting = MinCut{}.two_respecting;
  double epsilon = ApproxSssp{}.epsilon;
  VertexId num_seeds = ApproxSssp{}.num_seeds;
  double repartition_growth = ApproxSssp{}.repartition_growth;
  bool wavefront_seeds = ApproxSssp{}.wavefront_seeds;
  std::uint64_t seed = Mis{}.seed;  ///< MIS priority seed
};

// -------------------------------------------------------------- phase meter

/// The run accounting of one solve (DESIGN.md §5). A workload drives its
/// rounds on sim() and tells the meter where its phases begin and end,
/// when it aggregated and what it was charged; the meter adds those to the
/// RunReport and emits one RoundTrace per closed phase. SolveHandle fills in
/// the rest of the report (rounds, messages, cache counters, wall time).
class PhaseMeter {
 public:
  PhaseMeter(Simulator& sim, RunReport& report, RoundTraceHook trace = {})
      : sim_(&sim), report_(&report), trace_(std::move(trace)) {}

  [[nodiscard]] Simulator& sim() const noexcept { return *sim_; }

  /// Opens the run's next phase: counts it and marks where its trace entry
  /// starts. A phase never closed (bfs's one flood, a single Aggregate,
  /// Boruvka's last phase on a disconnected network) counts but emits
  /// nothing.
  void open_phase() {
    if (!counts_phases_) return;
    ++report_->phases;
    rounds_at_open_ = sim_->rounds();
    messages_at_open_ = sim_->messages_sent();
    charged_at_open_ = report_->charged_construction_rounds;
  }
  /// Closes the open phase: emits its RoundTrace (the phase's number and
  /// the rounds, messages and charges since open_phase()) if a hook is set.
  void close_phase(const char* stage) {
    if (!counts_phases_ || !trace_) return;
    trace_(RoundTrace{stage, report_->phases,
                      sim_->rounds() - rounds_at_open_,
                      sim_->messages_sent() - messages_at_open_,
                      report_->charged_construction_rounds - charged_at_open_});
  }
  /// One part-wise aggregation ran.
  void aggregated() { ++report_->aggregations; }
  /// A substitution charge (DESIGN.md §2) for a construction this run paid.
  void charge(long long rounds) {
    report_->charged_construction_rounds += rounds;
  }
  /// A meter for a sub-run whose phases are not this run's phases
  /// (min-cut's packing MSTs): its aggregations and charges count, its
  /// phases and traces do not.
  [[nodiscard]] PhaseMeter inner() const {
    PhaseMeter m(*sim_, *report_);
    m.counts_phases_ = false;
    return m;
  }

 private:
  Simulator* sim_;
  RunReport* report_;
  RoundTraceHook trace_;
  bool counts_phases_ = true;
  long long rounds_at_open_ = 0;
  long long messages_at_open_ = 0;
  long long charged_at_open_ = 0;
};

}  // namespace mns::congest
