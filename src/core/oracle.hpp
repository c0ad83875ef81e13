// Bag oracles: pluggable local shortcut constructors used by the clique-sum
// builder (Theorem 7) for the per-bag "local shortcut" step. Each oracle sees
// an instance-local tree plus terminal sets and returns, per set, the tree
// edges taken (identified by their child vertex).
//
//  - trivial:   nothing (the right choice for width-k bags; Theorem 5)
//  - steiner:   full Steiner subtrees (block 1, congestion unbounded)
//  - greedy:    [HIZ16a]-style tuned capped climbing
//  - apex:      Lemmas 9-10 — handles the bag's apices via cells +
//               cell-assignment, delegating within cells to an inner oracle.
#pragma once

#include <functional>

#include "core/construct_tree.hpp"
#include "graph/rooted_tree.hpp"

namespace mns {

struct LocalInstance {
  RootedTree tree;
  std::vector<std::vector<VertexId>> terminal_sets;  ///< local ids, disjoint
  std::vector<VertexId> apices;                      ///< instance-local ids
};

/// One edge set per terminal set. Every make_oracle kind gives a set with at
/// most one terminal no edge; make_apex_oracle skips cells on that rule for
/// its inner oracle (itself, it gives a set holding an apex the whole tree).
using BagOracle =
    std::function<std::vector<TreeEdgeSet>(const LocalInstance&)>;

[[nodiscard]] BagOracle make_trivial_oracle();
[[nodiscard]] BagOracle make_steiner_oracle();
[[nodiscard]] BagOracle make_greedy_oracle();
/// Lemma 9/10 construction; `inner` builds the within-cell local shortcuts.
[[nodiscard]] BagOracle make_apex_oracle(BagOracle inner);

/// Value-type oracle descriptor so certificates stay plain data (printable,
/// comparable, serializable) instead of capturing std::function objects.
enum class OracleKind { kTrivial, kSteiner, kGreedy };

[[nodiscard]] BagOracle make_oracle(OracleKind kind);
[[nodiscard]] const char* oracle_kind_name(OracleKind kind);

}  // namespace mns
