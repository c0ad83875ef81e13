#include "core/oracle.hpp"

#include <algorithm>

#include "structure/cells.hpp"

namespace mns {

BagOracle make_trivial_oracle() {
  return [](const LocalInstance& inst) {
    return std::vector<TreeEdgeSet>(inst.terminal_sets.size());
  };
}

BagOracle make_steiner_oracle() {
  return [](const LocalInstance& inst) {
    return steiner_subtrees(inst.tree, inst.terminal_sets);
  };
}

BagOracle make_greedy_oracle() {
  return [](const LocalInstance& inst) {
    return tuned_greedy(inst.tree, inst.terminal_sets).sets;
  };
}

BagOracle make_oracle(OracleKind kind) {
  switch (kind) {
    case OracleKind::kTrivial:
      return make_trivial_oracle();
    case OracleKind::kSteiner:
      return make_steiner_oracle();
    case OracleKind::kGreedy:
      return make_greedy_oracle();
  }
  throw InvariantViolation("make_oracle: unknown kind");
}

const char* oracle_kind_name(OracleKind kind) {
  switch (kind) {
    case OracleKind::kTrivial:
      return "trivial";
    case OracleKind::kSteiner:
      return "steiner";
    case OracleKind::kGreedy:
      return "greedy";
  }
  return "?";
}

BagOracle make_apex_oracle(BagOracle inner) {
  return [inner = std::move(inner)](const LocalInstance& inst) {
    const RootedTree& tree = inst.tree;
    const std::size_t S = inst.terminal_sets.size();
    std::vector<TreeEdgeSet> out(S);
    if (inst.apices.empty()) return inner(inst);

    std::vector<char> is_apex(tree.num_vertices(), 0);
    for (VertexId a : inst.apices) is_apex[a] = 1;

    // Sets containing an apex receive the whole tree (at most q of them per
    // apex; Theorem 8's +q congestion term).
    std::vector<char> has_apex(S, 0);
    for (std::size_t s = 0; s < S; ++s)
      for (VertexId t : inst.terminal_sets[s])
        if (is_apex[t]) has_apex[s] = 1;
    for (std::size_t s = 0; s < S; ++s)
      if (has_apex[s])
        for (VertexId v = 0; v < tree.num_vertices(); ++v)
          if (v != tree.root()) out[s].push_back(v);

    // Cells: subtrees of T minus the apices (Lemma 9).
    TreeCells tc = cells_from_tree_minus_vertices(tree, inst.apices);
    if (tc.partition.num_cells() == 0) return out;

    // Incidence of apex-free sets with cells.
    std::vector<std::vector<CellId>> intersects(S);
    for (std::size_t s = 0; s < S; ++s) {
      if (has_apex[s]) continue;
      std::vector<CellId>& touched = intersects[s];
      for (VertexId t : inst.terminal_sets[s]) {
        CellId c = tc.partition.cell_of(t);
        if (c != kInvalidCell) touched.push_back(c);
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    }
    CellAssignment assign =
        assign_cells(intersects, tc.partition.num_cells());

    // Global shortcut: assigned cells contribute their full subtree plus the
    // uplink edge to the apex above the cell root.
    for (std::size_t s = 0; s < S; ++s) {
      if (has_apex[s]) continue;
      for (CellId c : assign.cells_of_part[s]) {
        for (VertexId v : tc.partition.members(c))
          if (v != tc.cell_root[c]) out[s].push_back(v);
        if (tc.uplink_target[c] != kInvalidVertex)
          out[s].push_back(tc.cell_root[c]);  // edge (cell_root -> apex)
      }
    }

    // Local shortcuts inside the <= 2 missing cells of each set, via the
    // inner oracle on the cell's subtree.
    // Group requests per cell first.
    std::vector<std::vector<std::size_t>> requests(tc.partition.num_cells());
    for (std::size_t s = 0; s < S; ++s)
      for (CellId c : assign.missing_cells_of_part[s]) requests[c].push_back(s);

    std::vector<VertexId> outer_to_cell(tree.num_vertices(), kInvalidVertex);
    for (CellId c = 0; c < tc.partition.num_cells(); ++c) {
      // Each request's terminals here. A cell where every request has at
      // most one is skipped: the inner oracle gives those no edge (oracle.hpp).
      std::vector<std::vector<VertexId>> terms(requests[c].size());
      bool connects = false;
      for (std::size_t i = 0; i < terms.size(); ++i) {
        for (VertexId t : inst.terminal_sets[requests[c][i]])
          if (tc.partition.cell_of(t) == c) terms[i].push_back(t);
        connects = connects || terms[i].size() > 1;
      }
      if (!connects) continue;
      auto cell_members = tc.partition.members(c);
      // Cell-local indexing.
      std::vector<VertexId> to_outer(cell_members.begin(), cell_members.end());
      for (VertexId i = 0; i < static_cast<VertexId>(to_outer.size()); ++i)
        outer_to_cell[to_outer[i]] = i;
      for (auto& ts : terms)
        for (VertexId& t : ts) t = outer_to_cell[t];
      std::vector<VertexId> cparent(to_outer.size(), kInvalidVertex);
      for (VertexId i = 0; i < static_cast<VertexId>(to_outer.size()); ++i) {
        VertexId v = to_outer[i];
        if (v == tc.cell_root[c]) continue;
        cparent[i] = outer_to_cell[tree.parent(v)];
      }
      LocalInstance sub{
          RootedTree(outer_to_cell[tc.cell_root[c]], std::move(cparent)),
          std::move(terms),
          {}};
      std::vector<TreeEdgeSet> local = inner(sub);
      for (std::size_t i = 0; i < requests[c].size(); ++i)
        for (VertexId cv : local[i]) out[requests[c][i]].push_back(to_outer[cv]);
      for (VertexId v : to_outer) outer_to_cell[v] = kInvalidVertex;
    }

    // De-duplicate (global + local can overlap in principle).
    for (auto& es : out) {
      std::sort(es.begin(), es.end());
      es.erase(std::unique(es.begin(), es.end()), es.end());
    }
    return out;
  };
}

}  // namespace mns
