#include "core/local_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace mns {

LocalTree steiner_minor(const RootedTree& T,
                        std::span<const VertexId> vertices) {
  if (vertices.empty())
    throw std::invalid_argument("steiner_minor: empty vertex set");

  // tin order (preorder position) for virtual-tree construction.
  const auto& pre = T.preorder();
  std::vector<int> tin(T.num_vertices());
  for (int i = 0; i < static_cast<int>(pre.size()); ++i) tin[pre[i]] = i;

  std::vector<VertexId> terms(vertices.begin(), vertices.end());
  std::sort(terms.begin(), terms.end(),
            [&](VertexId a, VertexId b) { return tin[a] < tin[b]; });
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  // Candidates: terminals plus consecutive LCAs.
  std::vector<VertexId> cand = terms;
  for (std::size_t i = 0; i + 1 < terms.size(); ++i)
    cand.push_back(T.lca(terms[i], terms[i + 1]));
  std::sort(cand.begin(), cand.end(),
            [&](VertexId a, VertexId b) { return tin[a] < tin[b]; });
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

  // Flat per-candidate arrays, indexed by a candidate's position in `cand`
  // (its tin rank among the candidates).
  const int k = static_cast<int>(cand.size());

  // Stack-based virtual tree: candidates in tin order; an element's virtual
  // parent is the nearest open ancestor.
  std::vector<int> vparent(k, -1);
  std::vector<int> stack;
  for (int i = 0; i < k; ++i) {
    while (!stack.empty() && !T.is_ancestor(cand[stack.back()], cand[i]))
      stack.pop_back();
    if (!stack.empty()) vparent[i] = stack.back();
    stack.push_back(i);
  }
  // Virtual children as sibling lists in tin order (prepending in reverse).
  std::vector<int> first_child(k, -1), next_sibling(k, -1);
  for (int i = k - 1; i >= 0; --i)
    if (vparent[i] >= 0) {
      next_sibling[i] = first_child[vparent[i]];
      first_child[vparent[i]] = i;
    }

  // local[i]: local index of cand[i] if it is a terminal, else
  // kInvalidVertex (terms and cand are both in tin order).
  std::vector<VertexId> local(k, kInvalidVertex);
  for (int i = 0, j = 0; i < k; ++i)
    if (j < static_cast<int>(terms.size()) && cand[i] == terms[j])
      local[i] = j++;

  std::vector<VertexId> parent_local(terms.size(), kInvalidVertex);
  std::vector<EdgeId> real_edge(terms.size(), kInvalidEdge);
  // rep[i]: local index of candidate i's terminal representative.
  std::vector<VertexId> rep(k, kInvalidVertex);

  auto attach = [&](VertexId cl, VertexId pl, bool straight_up) {
    require(parent_local[cl] == kInvalidVertex, "steiner_minor: reattach");
    parent_local[cl] = pl;
    if (straight_up && T.parent(terms[cl]) == terms[pl])
      real_edge[cl] = T.parent_edge(terms[cl]);
  };

  // Contract non-terminal candidates bottom-up (reverse tin order is a valid
  // bottom-up order for the virtual tree).
  std::vector<VertexId> child_reps;
  for (int i = k - 1; i >= 0; --i) {
    child_reps.clear();
    for (int c = first_child[i]; c >= 0; c = next_sibling[c])
      if (rep[c] != kInvalidVertex) child_reps.push_back(rep[c]);
    if (local[i] != kInvalidVertex) {
      for (VertexId r : child_reps) attach(r, local[i], /*straight_up=*/true);
      rep[i] = local[i];
    } else if (!child_reps.empty()) {
      rep[i] = child_reps[0];
      for (std::size_t r = 1; r < child_reps.size(); ++r)
        attach(child_reps[r], child_reps[0], /*straight_up=*/false);
    }
  }

  // Root of the local tree: rep of the top candidate (smallest tin, an
  // ancestor of all candidates).
  require(rep[0] != kInvalidVertex, "steiner_minor: no representative at top");
  return {RootedTree(rep[0], std::move(parent_local)), std::move(terms),
          std::move(real_edge)};
}

}  // namespace mns
