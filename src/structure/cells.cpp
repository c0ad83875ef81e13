#include "structure/cells.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace mns {

CellPartition::CellPartition(std::vector<CellId> cell_of)
    : cell_of_(std::move(cell_of)) {
  CellId max_cell = kInvalidCell;
  for (CellId c : cell_of_) {
    if (c < kInvalidCell)
      throw std::invalid_argument("CellPartition: bad cell id");
    max_cell = std::max(max_cell, c);
  }
  members_.assign(static_cast<std::size_t>(max_cell) + 1, {});
  for (VertexId v = 0; v < static_cast<VertexId>(cell_of_.size()); ++v)
    if (cell_of_[v] != kInvalidCell) members_[cell_of_[v]].push_back(v);
  for (const auto& m : members_)
    if (m.empty())
      throw std::invalid_argument("CellPartition: empty cell id in range");
}

std::string CellPartition::validate(const Graph& g, int max_diameter) const {
  if (static_cast<VertexId>(cell_of_.size()) != g.num_vertices())
    return "cell_of size differs from graph";
  for (CellId c = 0; c < num_cells(); ++c) {
    if (!is_connected_subset(g, members_[c])) {
      std::ostringstream os;
      os << "cell " << c << " is not connected";
      return os.str();
    }
    if (max_diameter >= 0) {
      InducedSubgraph sub = induced_subgraph(g, members_[c]);
      int d = diameter_exact(sub.graph);
      if (d > max_diameter) {
        std::ostringstream os;
        os << "cell " << c << " has diameter " << d << " > " << max_diameter;
        return os.str();
      }
    }
  }
  return {};
}

TreeCells cells_from_tree_minus_vertices(const RootedTree& tree,
                                         std::span<const VertexId> removed) {
  const VertexId n = tree.num_vertices();
  std::vector<char> is_removed(n, 0);
  for (VertexId v : removed) {
    if (v < 0 || v >= n)
      throw std::invalid_argument("cells_from_tree: removed vertex bad");
    is_removed[v] = 1;
  }
  TreeCells out{CellPartition(std::vector<CellId>(n, kInvalidCell)), {}, {}};
  std::vector<CellId> cell_of(n, kInvalidCell);
  std::vector<VertexId> roots;
  // Preorder guarantees parents come first, so a vertex either joins its
  // parent's cell or opens a new one.
  for (VertexId v : tree.preorder()) {
    if (is_removed[v]) continue;
    VertexId p = tree.parent(v);
    if (p != kInvalidVertex && !is_removed[p]) {
      cell_of[v] = cell_of[p];
    } else {
      cell_of[v] = static_cast<CellId>(roots.size());
      roots.push_back(v);
    }
  }
  out.partition = CellPartition(cell_of);
  out.cell_root = roots;
  out.uplink_target.reserve(roots.size());
  for (VertexId r : roots) out.uplink_target.push_back(tree.parent(r));
  return out;
}

std::vector<std::vector<CellId>> cell_intersections(
    const CellPartition& cells, const std::vector<std::vector<VertexId>>& parts) {
  std::vector<std::vector<CellId>> out(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    std::vector<CellId> touched;
    for (VertexId v : parts[p]) {
      CellId c = cells.cell_of(v);
      if (c != kInvalidCell) touched.push_back(c);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    out[p] = std::move(touched);
  }
  return out;
}

CellAssignment assign_cells(const std::vector<std::vector<CellId>>& intersects,
                            CellId num_cells) {
  const std::size_t P = intersects.size();
  CellAssignment out;
  out.cells_of_part.assign(P, {});
  out.missing_cells_of_part.assign(P, {});

  // Incidence: cell -> incident (remaining) parts; part -> remaining cells.
  std::vector<std::vector<std::int32_t>> parts_of_cell(num_cells);
  std::vector<std::vector<CellId>> cells_of_part(P);
  for (std::size_t p = 0; p < P; ++p)
    for (CellId c : intersects[p]) {
      if (c < 0 || c >= num_cells)
        throw std::invalid_argument("assign_cells: cell id out of range");
      parts_of_cell[c].push_back(static_cast<std::int32_t>(p));
      cells_of_part[p].push_back(c);
    }

  std::vector<char> part_alive(P, 1), cell_alive(num_cells, 1);
  std::vector<int> part_deg(P), cell_deg(num_cells);
  for (std::size_t p = 0; p < P; ++p)
    part_deg[p] = static_cast<int>(cells_of_part[p].size());
  for (CellId c = 0; c < num_cells; ++c)
    cell_deg[c] = static_cast<int>(parts_of_cell[c].size());

  // Min-heap of cells by (lazy) degree.
  using CellEntry = std::pair<int, CellId>;
  std::priority_queue<CellEntry, std::vector<CellEntry>, std::greater<>> heap;
  for (CellId c = 0; c < num_cells; ++c) heap.push({cell_deg[c], c});

  std::size_t parts_left = P;
  auto drop_if_low_degree = [&](std::size_t p) {
    if (!part_alive[p] || part_deg[p] > 2) return;
    part_alive[p] = 0;
    --parts_left;
    for (CellId c : cells_of_part[p])
      if (cell_alive[c]) {
        out.missing_cells_of_part[p].push_back(c);
        --cell_deg[c];
        heap.push({cell_deg[c], c});
      }
  };

  for (std::size_t p = 0; p < P; ++p) drop_if_low_degree(p);
  while (parts_left > 0 && !heap.empty()) {
    auto [deg, c] = heap.top();
    heap.pop();
    if (!cell_alive[c] || deg != cell_deg[c]) continue;  // stale entry
    cell_alive[c] = 0;
    int assigned = 0;
    for (std::int32_t p : parts_of_cell[c])
      if (part_alive[p]) {
        out.cells_of_part[p].push_back(c);
        --part_deg[p];
        ++assigned;
      }
    out.beta = std::max(out.beta, assigned);
    // Only c's parts lost a degree, and parts_of_cell[c] is in ascending
    // part id, so this drops exactly what a full rescan would, in order.
    for (std::int32_t p : parts_of_cell[c])
      drop_if_low_degree(static_cast<std::size_t>(p));
  }
  return out;
}

}  // namespace mns
