// congest::Session — one solver API over every part-wise workload.
//
// The paper's thesis is that ONE structural object (the low-congestion
// shortcut, dispatched from a StructuralCertificate) accelerates EVERY
// part-wise optimization problem on the network: MST, min-cut, SSSP
// [Haeupler-Li-Zuzic PODC 2018; Ghaffari-Haeupler]. A Session is that thesis
// as an API: it serves every workload through one entry point:
//
//   Session s(graph, apex_certificate({hub}));
//   RunReport mst  = s.solve(Mst{weights});
//   RunReport cut  = s.solve(MinCut{weights, /*num_trees=*/12});
//   RunReport path = s.solve(ApproxSssp{weights, depot});
//   RunReport same = s.solve("sssp.approx", params);  // by catalogue name
//
// Repeated queries — Boruvka phases that revisit a partition, k-source SSSP
// batches, an MST -> min-cut -> SSSP pipeline on the same network — stop
// re-paying ShortcutEngine::build_shortcut: the cache serves the built
// shortcut back, and the construction-round charge is applied once per
// distinct partition (DESIGN.md §2, §5).
//
// Since the SolverCore/SolveHandle split (DESIGN.md §10 "Serving
// architecture"), Session is a thin compatibility facade over the two
// layers that actually own the state:
//
//   SolverCore  (solver_core.hpp)  the immutable, shareable half: graph,
//                                  certificate, rooted tree, shortcut cache
//                                  behind a read-mostly concurrency discipline
//   SolveHandle (solve_handle.hpp) the cheap per-request half: Simulator,
//                                  execution policy, per-request cache
//                                  accounting, by-name dispatch
//
// One Session = one core + one default handle, single-threaded semantics
// preserved exactly. Every solve, typed or by name, forwards to that handle,
// so a Session keeps no workload list of its own (the catalogue lives in
// solve_handle.cpp). Code that wants concurrent queries over one warm core
// shares the Session's core_ptr() across many SolveHandles — or uses
// serve::QueryServer (src/serve/query_server.hpp), which does that fan-out
// over a WorkerPool.
//
// Sessions also survive graph churn without re-paying construction:
// update() applies an UpdateBatch incrementally — weight-only batches touch
// nothing structural, structural batches replace the core with a successor
// that migrates every clean cache entry live and re-hangs only broken tree
// subpaths (DESIGN.md §12 "Incremental updates").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "congest/solve_handle.hpp"
#include "congest/solver_core.hpp"

namespace mns::io {
struct Snapshot;  // io/snapshot.hpp
}

namespace mns::congest {

/// The core's construction knobs (tree factory, cache capacity, LDD
/// options) plus the default handle's execution policy.
struct SessionConfig : CoreConfig {
  /// Default execution policy for every solve (overridable per solve via
  /// SolveOptions::threads).
  ExecutionPolicy execution;
};

class Session {
 public:
  /// Takes ownership of the network. The certificate is the session's
  /// structural knowledge; every shortcut dispatches through it.
  explicit Session(Graph g,
                   StructuralCertificate certificate = greedy_certificate(),
                   SessionConfig config = {});

  /// Wraps an existing shared core (serving path): the session becomes one
  /// more client of `core`. Only `config.execution` applies — the core
  /// already fixed its CoreConfig at its own construction.
  explicit Session(std::shared_ptr<const SolverCore> core,
                   SessionConfig config = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // -- cross-process persistence (DESIGN.md §8) --

  /// Persists the session to the versioned binary snapshot format
  /// (io/snapshot.hpp): graph, certificate, the rooted tree (built now if
  /// not yet — a restored session must never re-derive it), and every
  /// cached shortcut with its partition, in LRU order. `weights` rides
  /// along as instance data (pass the workload's edge weights, or empty).
  /// Throws io::SnapshotError on I/O failure.
  void save(const std::string& path, std::vector<Weight> weights = {});

  /// Rebuilds a session from a snapshot. Epoch-correct: restored shortcuts
  /// land in the LRU cache keyed with the new core's partition
  /// fingerprints, so the first solve over a snapshotted partition is a
  /// cache HIT — bit-identical to the in-process warm solve and with
  /// charged_construction_rounds == 0 (pinned by tests/test_snapshot.cpp
  /// and bench_sessions' E16 restore rows). `config.tree` only applies if
  /// the snapshot carries no tree.
  [[nodiscard]] static Session restore(io::Snapshot snapshot,
                                       SessionConfig config = {});
  /// read_snapshot(path) + restore. Throws io::SnapshotError on corruption.
  [[nodiscard]] static Session restore(const std::string& path,
                                       SessionConfig config = {});

  // -- incremental updates (DESIGN.md §12) --

  /// Applies an edit batch to the live session, doing the minimum
  /// structural work instead of a rebuild:
  ///
  ///   * weight-only batch — applied to `*weights` in place; NO structural
  ///     object moves (builders never consume weights), so every cache entry
  ///     stays live and subsequent solves still hit with
  ///     charged_construction_rounds == 0.
  ///   * structural batch — the core is replaced by SolverCore::update's
  ///     successor: certificate remapped, broken tree subpaths re-hung,
  ///     clean cache entries migrated live, dirty ones dropped. `*weights`
  ///     (if non-empty) is carried across the id remap. The default handle
  ///     is recreated over the new graph, which resets the per-session
  ///     hit/miss counters and DETACHES any installed transport.
  ///
  /// `weights` may be null or empty when the caller keeps no edge weights.
  /// Returns what happened (entries kept/invalidated, subpaths rebuilt, id
  /// maps for carrying external side data). Throws UpdateError on batches
  /// the structures cannot absorb; the session is unchanged in that case.
  UpdateStats update(const UpdateBatch& batch,
                     std::vector<Weight>* weights = nullptr);

  // -- the uniform solve surface (delegates to the default handle) --

  /// Every typed request SolveHandle solves (Mst, MinCut, ApproxSssp, ...).
  template <typename Request>
    requires requires(SolveHandle& h, const Request& q) { h.solve(q); }
  [[nodiscard]] RunReport solve(const Request& q,
                                const SolveOptions& opt = {}) {
    return handle_->solve(q, opt);
  }

  /// Runs the named workload (builtin_workload_names()). Throws
  /// InvariantViolation naming the offender on unknown names.
  [[nodiscard]] RunReport solve(std::string_view workload,
                                const WorkloadParams& params,
                                const SolveOptions& opt = {}) {
    return handle_->solve(workload, params, opt);
  }

  // -- owned state --
  [[nodiscard]] const Graph& graph() const noexcept { return core_->graph(); }
  /// Installs a message transport on the default handle's round engine
  /// (non-owning; DESIGN.md §11 "Transport layer").
  void set_transport(transport::Transport* transport) {
    handle_->set_transport(transport);
  }
  [[nodiscard]] const StructuralCertificate& certificate() const noexcept {
    return core_->certificate();
  }
  /// The shared half: hand this to other SolveHandles (or a QueryServer) to
  /// serve concurrent queries over this session's warm state.
  [[nodiscard]] const std::shared_ptr<const SolverCore>& core_ptr()
      const noexcept {
    return handle_->core_ptr();
  }

  /// Swaps the structural knowledge; invalidates every cached shortcut (a
  /// NEW core is built over the SAME graph, so the simulator stays valid).
  void set_certificate(StructuralCertificate cert);
  /// The session spanning tree (built on first use, then reused by every
  /// shortcut construction).
  [[nodiscard]] const RootedTree& tree() const { return core_->tree(); }

  /// Builds, validates, AND measures the current certificate's shortcut for
  /// `parts` (quality metrics for analysis/benches); the built shortcut is
  /// inserted into the cache, so a following solve(Aggregate{parts,...})
  /// hits.
  [[nodiscard]] BuildResult analyze(const Partition& parts) const {
    return core_->analyze(parts);
  }

  // -- cache introspection --
  [[nodiscard]] std::size_t cache_size() const noexcept {
    return core_->cache_size();
  }
  [[nodiscard]] long long cache_hits() const noexcept {
    return handle_->cache_hits();
  }
  [[nodiscard]] long long cache_misses() const noexcept {
    return handle_->cache_misses();
  }
  [[nodiscard]] long long cache_evictions() const noexcept {
    return handle_->cache_evictions();
  }

 private:
  std::shared_ptr<const SolverCore> core_;
  /// The per-solve execution policy, kept so update() can recreate the
  /// default handle over a successor graph.
  ExecutionPolicy execution_;
  /// unique_ptr (not a member object): a structural update() replaces the
  /// graph, and SolveHandle::rebind only accepts same-graph swaps.
  std::unique_ptr<SolveHandle> handle_;
};

}  // namespace mns::congest
