#include "core/shortcut.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "graph/union_find.hpp"

namespace mns {

Shortcut empty_shortcut(const Partition& parts) {
  Shortcut sc;
  sc.edges_of_part.resize(parts.num_parts());
  return sc;
}

std::string validate_tree_restricted(const Graph& g, const RootedTree& tree,
                                     const Shortcut& shortcut) {
  // Mark tree edges.
  std::vector<char> is_tree_edge(g.num_edges(), 0);
  for (VertexId v = 0; v < tree.num_vertices(); ++v)
    if (v != tree.root() && tree.parent_edge(v) != kInvalidEdge)
      is_tree_edge[tree.parent_edge(v)] = 1;
  // The last part that listed each edge: one edge in two parts is congestion.
  std::vector<std::size_t> listed_by(g.num_edges(),
                                     shortcut.edges_of_part.size());
  for (std::size_t p = 0; p < shortcut.edges_of_part.size(); ++p) {
    for (EdgeId e : shortcut.edges_of_part[p]) {
      if (e < 0 || e >= g.num_edges()) {
        std::ostringstream os;
        os << "part " << p << " has out-of-range edge id";
        return os.str();
      }
      if (!is_tree_edge[e]) {
        std::ostringstream os;
        os << "part " << p << " uses non-tree edge " << e;
        return os.str();
      }
      if (listed_by[e] == p) {
        std::ostringstream os;
        os << "part " << p << " lists edge " << e << " twice";
        return os.str();
      }
      listed_by[e] = p;
    }
  }
  return {};
}

ShortcutMetrics measure_shortcut(const Graph& g, const RootedTree& tree,
                                 const Partition& parts,
                                 const Shortcut& shortcut) {
  require(static_cast<PartId>(shortcut.edges_of_part.size()) ==
              parts.num_parts(),
          "measure_shortcut: shortcut/partition size mismatch");
  ShortcutMetrics m;
  m.tree_diameter = tree_diameter(tree);

  // Congestion.
  std::vector<int> cong(g.num_edges(), 0);
  for (const auto& edges : shortcut.edges_of_part)
    for (EdgeId e : edges) ++cong[e];
  long long cong_sum = 0;
  int cong_edges = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    m.congestion = std::max(m.congestion, cong[e]);
    if (cong[e] > 0) {
      cong_sum += cong[e];
      ++cong_edges;
    }
  }
  m.mean_congestion =
      cong_edges == 0 ? 0.0 : static_cast<double>(cong_sum) / cong_edges;

  // Block parameter: components of (V, H_i) containing a P_i vertex. A DSU
  // over only the vertices each part touches keeps this linear in the total
  // shortcut size rather than parts * n.
  m.block_of_part.resize(parts.num_parts());
  long long block_sum = 0;
  std::vector<VertexId> local_index(g.num_vertices(), kInvalidVertex);
  std::vector<VertexId> touched;
  for (PartId p = 0; p < parts.num_parts(); ++p) {
    touched.clear();
    auto touch = [&](VertexId v) {
      if (local_index[v] == kInvalidVertex) {
        local_index[v] = static_cast<VertexId>(touched.size());
        touched.push_back(v);
      }
    };
    for (VertexId v : parts.members(p)) touch(v);
    for (EdgeId e : shortcut.edges_of_part[p]) {
      touch(g.edge(e).u);
      touch(g.edge(e).v);
    }
    UnionFind uf(static_cast<VertexId>(touched.size()));
    for (EdgeId e : shortcut.edges_of_part[p])
      uf.unite(local_index[g.edge(e).u], local_index[g.edge(e).v]);
    std::set<VertexId> roots;
    for (VertexId v : parts.members(p)) roots.insert(uf.find(local_index[v]));
    m.block_of_part[p] = static_cast<int>(roots.size());
    m.block = std::max(m.block, m.block_of_part[p]);
    block_sum += m.block_of_part[p];
    for (VertexId v : touched) local_index[v] = kInvalidVertex;
  }
  m.mean_block = parts.num_parts() == 0
                     ? 0.0
                     : static_cast<double>(block_sum) / parts.num_parts();
  m.quality = static_cast<long long>(m.block) * m.tree_diameter + m.congestion;
  return m;
}

int tree_diameter(const RootedTree& tree) {
  const VertexId n = tree.num_vertices();
  if (n <= 1) return 0;
  // Farthest vertex from the root, then farthest from that one, walking only
  // tree edges (parent/children).
  auto bfs_far = [&](VertexId src) {
    std::vector<int> dist(n, -1);
    std::vector<VertexId> queue{src};
    dist[src] = 0;
    std::size_t head = 0;
    VertexId far = src;
    while (head < queue.size()) {
      VertexId v = queue[head++];
      if (dist[v] > dist[far]) far = v;
      auto visit = [&](VertexId w) {
        if (w != kInvalidVertex && dist[w] == -1) {
          dist[w] = dist[v] + 1;
          queue.push_back(w);
        }
      };
      visit(tree.parent(v));
      for (VertexId c : tree.children(v)) visit(c);
    }
    return std::pair(far, dist[far]);
  };
  auto [far, _] = bfs_far(tree.root());
  return bfs_far(far).second;
}

}  // namespace mns
