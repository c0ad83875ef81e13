// Internal construction entry points: one free function per construction in
// the paper. ShortcutEngine::build_shortcut dispatches each certificate
// alternative to one of these — all code outside core/ goes through the
// engine (certificate-dispatched, validated, measured); the one exception is
// the parity suite in tests/test_shortcut_engine.cpp, which uses these as
// its pre-refactor oracle.
//
//   build_greedy / build_steiner / build_ancestor  — uniform constructions
//     ([HIZ16a]-style; no structural knowledge, like the actual distributed
//     algorithm).
//   build_treewidth_shortcut  — Theorem 5 via the clique-sum machinery with
//     width-k bags and the trivial oracle.
//   build_apex_shortcut       — Lemmas 9-10 at top level (apex + cells +
//     assignment, inner oracle within cells).
//   build_cliquesum_shortcut  — Theorem 7 (see construct_cliquesum.hpp);
//     combined with apex-aware oracles it yields the Theorem 6 pipeline for
//     L_k graphs (Theorem 3 reduces H-minor-free networks to exactly that).
#pragma once

#include "core/construct_cliquesum.hpp"
#include "core/construct_tree.hpp"
#include "core/oracle.hpp"
#include "structure/tree_decomposition.hpp"

namespace mns {

[[nodiscard]] Shortcut build_greedy_shortcut(const Graph& g,
                                             const RootedTree& tree,
                                             const Partition& parts);

[[nodiscard]] Shortcut build_steiner_shortcut(const Graph& g,
                                              const RootedTree& tree,
                                              const Partition& parts);

[[nodiscard]] Shortcut build_ancestor_shortcut(const Graph& g,
                                               const RootedTree& tree,
                                               const Partition& parts,
                                               int levels);

/// Theorem 5: width-k tree decomposition -> shortcuts with b = O(k),
/// c = O(k log n) (measured).
[[nodiscard]] Shortcut build_treewidth_shortcut(const Graph& g,
                                                const RootedTree& tree,
                                                const Partition& parts,
                                                const TreeDecomposition& td);

/// Lemmas 9-10: single-level apex construction over the whole network.
[[nodiscard]] Shortcut build_apex_shortcut(const Graph& g,
                                           const RootedTree& tree,
                                           const Partition& parts,
                                           const std::vector<VertexId>& apices,
                                           BagOracle inner);

}  // namespace mns
