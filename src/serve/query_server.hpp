// serve::QueryServer — concurrent query serving over one shared SolverCore
// (DESIGN.md §10 "Serving architecture").
//
// This is the paper's amortization argument taken to its operational
// conclusion: the expensive structural object (certificate + tree +
// shortcuts) is paid for ONCE, held in an immutable congest::SolverCore, and
// any number of requests then answer cheaply against it. The server maps a
// restored snapshot (or a live core) into that shared state and fans
// batches of requests across a congest::WorkerPool, where every worker
// drives its OWN congest::SolveHandle — so simulators, round buffers, and
// per-request telemetry never share, and the only contended object is the
// core's read-mostly shortcut cache.
//
// Serving discipline (the §10 contract):
//   * warm() first: run the workload mix once, sequentially, so every
//     distinct partition's shortcut is constructed and cached exactly once.
//     Post-warm-up, every request is a cache hit with
//     charged_construction_rounds == 0, and concurrent RunReports are
//     bit-identical to sequential ones (pinned by tests/test_serve.cpp).
//     Cold concurrent serving stays correct — racing builders of one
//     partition insert once and results are bit-identical — but BOTH may
//     pay the construction charge, so cold reports are width-dependent.
//   * batching: every "sssp.approx" request is normalized to
//     wavefront_seeds=false — source-independent Voronoi cells make all k
//     sources of a batch share ONE partition, so the whole batch hits one
//     cached shortcut instead of building k wavefront-specific ones.
//   * each Response carries the canonical RunReport (io/report_json
//     renders it; response_to_json below wraps it with request status).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "congest/execution.hpp"
#include "congest/solve_handle.hpp"
#include "congest/solver_core.hpp"

namespace mns::serve {

/// One query: a catalogue workload name (congest::builtin_workload_names())
/// plus its parameter bundle.
struct Request {
  std::string workload;  ///< "mst", "mincut", "sssp.approx", ... ("bfs" etc.)
  congest::WorkloadParams params;
  congest::SolveOptions options;
};

/// One answer. `error` is empty on success; on failure the report is
/// default-constructed and `error` carries the exception message.
struct Response {
  congest::RunReport report;
  std::string error;
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

struct ServerConfig {
  /// Concurrent workers (= SolveHandles) serving a batch; >= 1.
  int workers = 1;
  /// Core construction knobs for from_snapshot (ignored by the shared-core
  /// constructor, whose core is already built).
  congest::CoreConfig core;
  /// Optional message transport installed on the serving handle (non-owning,
  /// must outlive the server — DESIGN.md §11): the server then answers
  /// queries over a distributed round engine, e.g. one rank of a
  /// SocketTransport cluster. Requires workers == 1 — a transport is ONE
  /// lock-step endpoint and cannot be shared by concurrent handles.
  transport::Transport* transport = nullptr;
};

/// Canonical JSON for one response: the RunReport document wrapped with
/// request status — {"ok":true,"report":{...}} or {"ok":false,"error":"..."}.
[[nodiscard]] std::string response_to_json(const Response& response);

class QueryServer {
 public:
  /// Serves over an existing shared core (e.g. Session::core_ptr()).
  explicit QueryServer(std::shared_ptr<const congest::SolverCore> core,
                       ServerConfig config = {});

  /// read_snapshot(path) -> SolverCore::restore -> server. The snapshot's
  /// cached shortcuts arrive warm: requests over snapshotted partitions hit
  /// immediately. Throws io::SnapshotError on corruption.
  [[nodiscard]] static QueryServer from_snapshot(const std::string& path,
                                                 ServerConfig config = {});

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  [[nodiscard]] const congest::SolverCore& core() const noexcept {
    return *core_;
  }
  [[nodiscard]] const std::shared_ptr<const congest::SolverCore>& core_ptr()
      const noexcept {
    return core_;
  }
  [[nodiscard]] int workers() const noexcept { return config_.workers; }

  /// Runs the batch SEQUENTIALLY (worker 0 only), in order. Use it to (a)
  /// pre-construct every distinct shortcut the mix needs and (b) produce
  /// the sequential reference reports that concurrent serve() runs must
  /// bit-match (io::run_reports_identical).
  [[nodiscard]] std::vector<Response> warm(const std::vector<Request>& batch);

  /// Fans the batch across the worker pool: requests are claimed
  /// dynamically, each worker solves on its own handle, and responses land
  /// at their request's index. Not reentrant (one serve() at a time).
  [[nodiscard]] std::vector<Response> serve(const std::vector<Request>& batch);

  /// Streaming variant: `sink(index, response)` fires as each request
  /// completes (serialized — sinks never race), in completion order.
  using ResponseSink = std::function<void(std::size_t, const Response&)>;
  std::vector<Response> serve(const std::vector<Request>& batch,
                              const ResponseSink& sink);

  /// Requests completed over the server's lifetime (warm + serve).
  [[nodiscard]] long long requests_served() const noexcept {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  /// Applies the batching rule to one request (see the header comment).
  [[nodiscard]] Request normalize(const Request& request) const;
  [[nodiscard]] Response answer(congest::SolveHandle& handle,
                                const Request& request);

  std::shared_ptr<const congest::SolverCore> core_;
  ServerConfig config_;
  /// One handle per worker, created up front: worker w always solves on
  /// handles_[w], so its round buffers stay warm across batches.
  std::vector<std::unique_ptr<congest::SolveHandle>> handles_;
  congest::WorkerPool pool_;
  std::atomic<long long> requests_served_{0};
};

}  // namespace mns::serve
