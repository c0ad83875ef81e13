// ShortcutEngine: the one construction dispatch between structural knowledge
// and the CONGEST algorithms.
//
// build_shortcut() visits the StructuralCertificate, calls the matching
// core/engine.hpp construction, and validates the result against
// Definition 10 (validate_tree_restricted); build() also measures it
// (measure_shortcut). A new construction is a new certificate alternative
// plus one visitor overload — the std::visit does not compile until the
// overload exists. SolverCore, benches, examples and tests all go through
// here: there is exactly one place where "certificate in, shortcut out"
// happens.
#pragma once

#include "core/certificate.hpp"
#include "core/shortcut.hpp"

namespace mns {

/// Every engine result is validated and measured — quality is observed, never
/// assumed (the repo's core discipline).
struct BuildResult {
  Shortcut shortcut;
  ShortcutMetrics metrics;
};

/// Default TreeFactory: BFS tree rooted near the approximate center
/// (height <= D up to the approximation), deterministic for a fixed seed.
[[nodiscard]] TreeFactory center_tree_factory(unsigned seed = 1);

class ShortcutEngine {
 public:
  /// build_shortcut(), then measure_shortcut().
  [[nodiscard]] BuildResult build(const Graph& g, const RootedTree& tree,
                                  const Partition& parts,
                                  const StructuralCertificate& cert) const;

  /// Construction-only path: dispatch on `cert` (the constructions of
  /// builder_name_for), then validate; skips measuring. Throws
  /// InvariantViolation if `parts` does not map exactly g's vertices or the
  /// construction emits an invalid shortcut.
  [[nodiscard]] Shortcut build_shortcut(const Graph& g, const RootedTree& tree,
                                        const Partition& parts,
                                        const StructuralCertificate& cert) const;

  /// The shared engine (it holds no state).
  [[nodiscard]] static const ShortcutEngine& global();
};

}  // namespace mns
