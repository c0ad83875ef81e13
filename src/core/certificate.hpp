// Structural certificates: the "what do we know about this network" input of
// the paper's whole pipeline. Every theorem has the same shape — structural
// knowledge about the family implies a good tree-restricted shortcut — and a
// StructuralCertificate is that knowledge reified as plain data:
//
//   UniformCertificate    — nothing is known; the [HIZ16a]-style uniform
//                           constructions apply (greedy / steiner / ancestor).
//   TreewidthCertificate  — a width-k tree decomposition (Theorem 5).
//   ApexCertificate       — apex vertices of an apex graph, with the
//                           within-cell oracle of Lemmas 9-10 (Theorem 8 at
//                           top level).
//   CliqueSumCertificate  — a k-clique-sum decomposition (Theorem 7);
//                           apex-aware local oracles turn it into the full
//                           Theorem 6 pipeline for L_k / excluded-minor
//                           networks (via Theorem 3).
//
// ShortcutEngine visits the certificate and calls the matching construction,
// so new constructions (genus/vortex routes, dense-minor shortcuts, ...) plug
// in as one more alternative + one visitor overload without touching any
// call site; a missing overload is a compile error.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "core/oracle.hpp"
#include "structure/clique_sum.hpp"
#include "structure/tree_decomposition.hpp"

namespace mns {

/// No structural knowledge: pick one of the uniform constructions.
struct UniformCertificate {
  enum class Kind { kGreedy, kSteiner, kAncestor };
  Kind kind = Kind::kGreedy;
  /// kAncestor only: tree levels every terminal climbs (-1 = to the root).
  int levels = -1;
};

/// Theorem 5: the network has the recorded width-k tree decomposition.
struct TreewidthCertificate {
  TreeDecomposition decomposition;
};

/// Lemmas 9-10 at top level: `apices` whose removal leaves the easy part;
/// `inner` builds the within-cell local shortcuts.
struct ApexCertificate {
  std::vector<VertexId> apices;
  OracleKind inner = OracleKind::kGreedy;
};

/// Theorem 7: the network is the recorded k-clique-sum of its bags. With
/// `apex_aware` + `bag_apices` this is the Theorem 6 pipeline for L_k graphs.
struct CliqueSumCertificate {
  CliqueSumDecomposition decomposition;
  /// Apply the §2.2 heavy-light folding (depth O(log^2 n)).
  bool fold = true;
  /// Local constructor within each decomposition node.
  OracleKind local_oracle = OracleKind::kGreedy;
  /// Wrap `local_oracle` in the Lemma 9 apex oracle (consumes `bag_apices`).
  bool apex_aware = false;
  /// Per ORIGINAL bag: apex vertices (global ids) forwarded into the local
  /// instances. Default-initialized like every other member, so
  /// `CliqueSumCertificate{decomposition}` builds clean under
  /// -Wmissing-field-initializers.
  std::vector<std::vector<VertexId>> bag_apices{};
};

using StructuralCertificate =
    std::variant<UniformCertificate, TreewidthCertificate, ApexCertificate,
                 CliqueSumCertificate>;

/// Name of the construction this certificate dispatches to
/// ("uniform.greedy", "uniform.steiner", "uniform.ancestor", "treewidth",
/// "apex", "cliquesum"), for reports and error messages.
[[nodiscard]] std::string builder_name_for(const StructuralCertificate& cert);

// Shorthand constructors for the common cases.
[[nodiscard]] inline StructuralCertificate greedy_certificate() {
  return UniformCertificate{UniformCertificate::Kind::kGreedy, -1};
}
[[nodiscard]] inline StructuralCertificate steiner_certificate() {
  return UniformCertificate{UniformCertificate::Kind::kSteiner, -1};
}
[[nodiscard]] inline StructuralCertificate ancestor_certificate(int levels) {
  return UniformCertificate{UniformCertificate::Kind::kAncestor, levels};
}
[[nodiscard]] inline StructuralCertificate treewidth_certificate(
    TreeDecomposition td) {
  return TreewidthCertificate{std::move(td)};
}
[[nodiscard]] inline StructuralCertificate apex_certificate(
    std::vector<VertexId> apices, OracleKind inner = OracleKind::kGreedy) {
  return ApexCertificate{std::move(apices), inner};
}
[[nodiscard]] inline StructuralCertificate cliquesum_certificate(
    CliqueSumDecomposition csd) {
  CliqueSumCertificate c{std::move(csd), /*fold=*/true, OracleKind::kGreedy,
                         /*apex_aware=*/false, /*bag_apices=*/{}};
  return c;
}

}  // namespace mns
