#include "congest/session.hpp"

#include <utility>

#include "io/snapshot.hpp"

namespace mns::congest {

Session::Session(Graph g, StructuralCertificate certificate,
                 SessionConfig config)
    : core_(std::make_shared<const SolverCore>(
          std::move(g), std::move(certificate), config)),
      execution_(config.execution),
      handle_(std::make_unique<SolveHandle>(core_, execution_)) {}

Session::Session(std::shared_ptr<const SolverCore> core, SessionConfig config)
    : core_(std::move(core)),
      execution_(config.execution),
      handle_(std::make_unique<SolveHandle>(core_, execution_)) {}

void Session::set_certificate(StructuralCertificate cert) {
  // The successor keeps this core's graph object and knobs, so the
  // handle's simulator stays valid.
  core_ = std::make_shared<const SolverCore>(core_->graph_ptr(),
                                             std::move(cert), core_->config());
  handle_->rebind(core_);
}

// ------------------------------------------------ persistence (DESIGN.md §8)

void Session::save(const std::string& path, std::vector<Weight> weights) {
  require(weights.empty() ||
              weights.size() ==
                  static_cast<std::size_t>(core_->graph().num_edges()),
          "Session::save: weights count != edge count");
  io::Snapshot snap;
  snap.graph = core_->graph();
  snap.weights = std::move(weights);
  snap.certificate = core_->certificate();
  const RootedTree& t = core_->tree();  // force-build: restore never re-derives
  io::TreeSnapshot ts;
  ts.root = t.root();
  const VertexId n = t.num_vertices();
  ts.parent.reserve(static_cast<std::size_t>(n));
  ts.parent_edge.reserve(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    ts.parent.push_back(t.parent(v));
    ts.parent_edge.push_back(t.parent_edge(v));
  }
  snap.tree = std::move(ts);
  snap.shortcuts = core_->export_cache();  // MRU first; order is preserved
  snap.history = core_->history();  // all-zero history keeps the file at v1
  io::write_snapshot(snap, path);
}

// ----------------------------------------- incremental updates (DESIGN.md §12)

UpdateStats Session::update(const UpdateBatch& batch,
                            std::vector<Weight>* weights) {
  require(weights == nullptr || weights->empty() ||
              weights->size() ==
                  static_cast<std::size_t>(core_->graph().num_edges()),
          "Session::update: weights count != edge count");
  UpdateStats stats;
  if (!batch.structural()) {
    // Weight-only fast path: no builder or tree factory ever consumes
    // weights, so the core (and with it every cache entry) stays live.
    if (weights != nullptr && !weights->empty())
      apply_weight_changes(batch, *weights);
    else if (!batch.weight_changes.empty())
      throw UpdateError(
          "Session::update: weight changes need a weights vector to land in");
    core_->note_weight_update();
    stats.entries_kept = core_->cache_size();
    return stats;
  }
  // Build the successor state fully before installing any of it, so a
  // throwing batch leaves the session untouched.
  std::shared_ptr<const SolverCore> next = core_->update(batch, stats);
  const bool carry = weights != nullptr && !weights->empty();
  if (carry)
    *weights = remap_weights(core_->graph(), next->graph(), stats.vertex_map,
                             stats.edge_map, batch, std::move(*weights));
  core_ = std::move(next);
  // The graph object changed, so the old handle's simulator references are
  // void: recreate the default handle (drops any installed transport).
  handle_ = std::make_unique<SolveHandle>(core_, execution_);
  return stats;
}

Session Session::restore(io::Snapshot snapshot, SessionConfig config) {
  auto core = SolverCore::restore(std::move(snapshot), config);
  return Session(std::move(core), std::move(config));
}

Session Session::restore(const std::string& path, SessionConfig config) {
  return restore(io::read_snapshot(path), std::move(config));
}

}  // namespace mns::congest
