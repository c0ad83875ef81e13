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
// The requests, payloads, RunReport and SolveOptions every solve speaks are
// defined in workload.hpp. Each typed solve is one call into its workload's
// entry point, with the handle's ShortcutSource and a PhaseMeter over the
// report. The by-name workload catalogue is one constant table in
// solve_handle.cpp: solve(name, params) looks the name up there, and
// builtin_workload_names() lists it.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "congest/shortcut_source.hpp"
#include "congest/simulator.hpp"
#include "congest/solver_core.hpp"
#include "congest/workload.hpp"

namespace mns::congest {

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

  /// Runs `body` with a PhaseMeter over a fresh RunReport, between telemetry
  /// snapshots, and stores the payload it returns; applies the solve's
  /// execution policy (threads) to the simulator first.
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
