// congest::SolveHandle — the cheap, per-request half of a solver session
// (DESIGN.md §10 "Serving architecture").
//
// A SolveHandle owns everything one in-flight request needs and nothing it
// must share: the Simulator (round engine, round buffers, staging shards),
// the execution policy and the per-request cache-hit/miss accounting. All
// expensive read-only state — graph, certificate, rooted tree, shortcut
// cache — lives in the SolverCore the handle points at (solver_core.hpp),
// so handles are cheap to create per request and any number of them can
// drive the SAME core from different threads concurrently.
// serve::QueryServer does exactly that; the legacy congest::Session wraps
// one core + one default handle.
//
// This header also defines the workload request structs, result payloads,
// RunReport and SolveOptions that were historically part of session.hpp —
// they are the vocabulary of every solve, whichever surface issues it.
// The by-name workload catalogue is one constant table in
// solve_handle.cpp: solve(name, params) looks the name up there, and
// builtin_workload_names() lists it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "congest/aggregation.hpp"
#include "congest/bfs.hpp"
#include "congest/mincut.hpp"
#include "congest/mst.hpp"
#include "congest/shortcut_source.hpp"
#include "congest/simulator.hpp"
#include "congest/solver_core.hpp"
#include "congest/sssp.hpp"

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
  double epsilon = 0.25;
  VertexId num_seeds = 0;        ///< 0 = ceil(sqrt(n))
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
  std::vector<PartId> fragment_of;
  bool operator==(const MstPayload&) const = default;
};
struct MinCutPayload {
  Weight value = 0;
  int trees = 0;
  bool operator==(const MinCutPayload&) const = default;
};
struct SsspPayload {
  std::vector<Weight> dist;
  long long jumps = 0;
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
  int phases = 0;              ///< Boruvka phases / packing trees / scale phases
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
  /// / GHS phase). Workloads with no phase structure (ExactSssp, Bfs,
  /// single-shot Aggregate) emit nothing.
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
/// workload's knobs, defaulted like the typed structs.
struct WorkloadParams {
  std::vector<Weight> weights;
  VertexId source = 0;  ///< SSSP source / BFS root
  int num_trees = 8;
  bool two_respecting = false;
  double epsilon = 0.25;
  VertexId num_seeds = 0;
  double repartition_growth = 0.5;
  bool wavefront_seeds = true;
  std::uint64_t seed = 1;  ///< MIS priority seed
};

/// The names SolveHandle::solve(name, ...) accepts, sorted — read off the
/// catalogue table, so tools (mnsctl usage) and tests quote the same list.
[[nodiscard]] const std::vector<std::string>& builtin_workload_names();

// ------------------------------------------------------------- solve handle

class SolveHandle {
 public:
  /// Binds to a shared core. `execution` is the handle's default thread
  /// policy (overridable per solve via SolveOptions::threads).
  explicit SolveHandle(std::shared_ptr<const SolverCore> core,
                       ExecutionPolicy execution = {});

  SolveHandle(const SolveHandle&) = delete;
  SolveHandle& operator=(const SolveHandle&) = delete;

  [[nodiscard]] const SolverCore& core() const noexcept { return *core_; }
  [[nodiscard]] const std::shared_ptr<const SolverCore>& core_ptr()
      const noexcept {
    return core_;
  }
  [[nodiscard]] const Graph& graph() const noexcept { return core_->graph(); }

  /// Installs a message transport on the round engine (non-owning; must
  /// outlive the handle or be detached with nullptr — DESIGN.md §11). Every
  /// subsequent solve's rounds exchange through it.
  void set_transport(transport::Transport* transport) {
    sim_.set_transport(transport);
  }

  /// Points the handle at a different core over the SAME graph object
  /// (Session::set_certificate swaps structural knowledge this way without
  /// invalidating the simulator). Throws if the graph differs.
  void rebind(std::shared_ptr<const SolverCore> core);

  // -- the uniform solve surface --
  [[nodiscard]] RunReport solve(const Mst& q, const SolveOptions& opt = {});
  [[nodiscard]] RunReport solve(const GhsMst& q, const SolveOptions& opt = {});
  [[nodiscard]] RunReport solve(const MinCut& q, const SolveOptions& opt = {});
  [[nodiscard]] RunReport solve(const ExactSssp& q,
                                const SolveOptions& opt = {});
  [[nodiscard]] RunReport solve(const ApproxSssp& q,
                                const SolveOptions& opt = {});
  [[nodiscard]] RunReport solve(const Bfs& q, const SolveOptions& opt = {});
  [[nodiscard]] RunReport solve(const Mis& q, const SolveOptions& opt = {});
  [[nodiscard]] RunReport solve(const DominatingSet& q,
                                const SolveOptions& opt = {});
  [[nodiscard]] RunReport solve(const Aggregate& q,
                                const SolveOptions& opt = {});

  /// Runs the named workload (builtin_workload_names()) by mapping `params`
  /// onto its typed request. Throws InvariantViolation naming the offender
  /// on unknown names.
  [[nodiscard]] RunReport solve(std::string_view workload,
                                const WorkloadParams& params,
                                const SolveOptions& opt = {});

  // -- per-handle cache accounting (what RunReports delta against) --
  [[nodiscard]] long long cache_hits() const noexcept { return hits_; }
  [[nodiscard]] long long cache_misses() const noexcept { return misses_; }
  [[nodiscard]] long long cache_evictions() const noexcept {
    return evictions_;
  }

 private:
  [[nodiscard]] ShortcutSource make_source(const SolveOptions& opt);

  /// Runs `body` between telemetry snapshots and assembles the RunReport;
  /// applies the solve's execution policy (threads) to the simulator first.
  template <typename Body>
  RunReport run(const char* workload, const SolveOptions& opt, Body&& body);

  std::shared_ptr<const SolverCore> core_;
  ExecutionPolicy default_execution_;
  Simulator sim_;
  long long hits_ = 0;
  long long misses_ = 0;
  long long evictions_ = 0;
};

}  // namespace mns::congest
