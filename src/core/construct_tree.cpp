#include "core/construct_tree.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

namespace mns {

namespace {

/// The (set, vertex) pairs heads reached while the climb processed one tree
/// level: open addressing, emptied per level, so no (set, vertex) table
/// outlives a level (DESIGN.md §9 "Construction memory").
class LevelReach {
 public:
  /// Empties the set and sizes it for up to `climbs` insertions.
  void reset(std::size_t climbs) {
    slot_.assign(std::bit_ceil(std::max<std::size_t>(16, 2 * climbs)), 0);
  }

  /// True iff (s, w) was not yet present (and is now).
  bool insert(std::size_t s, VertexId w) {
    // Biased by +1 so 0 can mark an empty slot.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(s) << 32 | static_cast<std::uint32_t>(w)) +
        1;
    const std::uint64_t h = (key ^ key >> 33) * 0xff51afd7ed558ccdULL;
    const std::size_t mask = slot_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h ^ h >> 33) & mask;
    for (; slot_[i] != 0; i = (i + 1) & mask)
      if (slot_[i] == key) return false;
    slot_[i] = key;
    return true;
  }

 private:
  std::vector<std::uint64_t> slot_;
};

/// One rung of the cap ladder, scored from the climb itself.
struct Rung {
  std::vector<TreeEdgeSet> sets;
  int block = 1;         ///< max(1, components left in any set)
  int congestion = 0;    ///< largest edge load
  bool refused = false;  ///< some climb hit the cap
};

/// A climbing front: (vertex, set).
using Head = std::pair<VertexId, std::size_t>;

/// Level-synchronous capped climbing over disjoint terminal sets; run()
/// reuses the scratch for every cap.
class GreedyClimb {
 public:
  GreedyClimb(const RootedTree& tree,
              const std::vector<std::vector<VertexId>>& terminal_sets)
      : tree_(tree),
        num_sets_(terminal_sets.size()),
        set_of_(tree.num_vertices(), num_sets_),
        bucket_(tree.height() + 1),
        edge_load_(tree.num_vertices()),
        heads_left_(num_sets_) {
    for (std::size_t s = 0; s < num_sets_; ++s)
      for (VertexId t : terminal_sets[s]) {
        if (set_of_[t] == s) continue;  // listed twice in one set
        if (set_of_[t] != num_sets_)
          throw InvariantViolation("capped_greedy: vertex " +
                                   std::to_string(t) +
                                   " is a terminal of two sets");
        set_of_[t] = s;
        heads_.push_back({t, s});
      }
  }

  Rung run(int cap) {
    Rung r;
    r.sets.resize(num_sets_);
    // heads_left_[s]: components of set s; a set stops climbing at 1.
    std::fill(heads_left_.begin(), heads_left_.end(), 0);
    std::fill(edge_load_.begin(), edge_load_.end(), 0);  // by child vertex
    bucket_[0].clear();  // deeper levels were freed as they were climbed
    for (auto [t, s] : heads_) {
      ++heads_left_[s];
      bucket_[tree_.depth(t)].push_back({t, s});
    }
    // s owns a vertex w at depth d - 1 iff w is a terminal of s or a head of
    // s reached w during level d: nothing else can claim w.
    for (int d = tree_.height(); d >= 1; --d) {
      reach_.reset(bucket_[d].size());
      for (auto [v, s] : bucket_[d]) {
        if (heads_left_[s] <= 1) continue;  // set already connected
        if (edge_load_[v] >= cap) {         // freeze: block root
          r.refused = true;
          continue;
        }
        r.congestion = std::max(r.congestion, ++edge_load_[v]);
        r.sets[s].push_back(v);
        const VertexId w = tree_.parent(v);
        if (set_of_[w] != s && reach_.insert(s, w))
          bucket_[d - 1].push_back({w, s});
        else
          --heads_left_[s];  // merged into own territory
      }
      // Free the climbed level: its fronts outweigh the output at the peak.
      std::vector<Head>().swap(bucket_[d]);
    }
    for (int h : heads_left_) r.block = std::max(r.block, h);
    return r;
  }

 private:
  const RootedTree& tree_;
  std::size_t num_sets_;
  std::vector<std::size_t> set_of_;  ///< vertex -> its set, or num_sets_
  std::vector<Head> heads_;          ///< distinct terminals, in set order
  std::vector<std::vector<Head>> bucket_;  ///< fronts by depth
  std::vector<int> edge_load_;
  std::vector<int> heads_left_;
  LevelReach reach_;
};

}  // namespace

std::vector<TreeEdgeSet> ancestor_climb(
    const RootedTree& tree,
    const std::vector<std::vector<VertexId>>& terminal_sets, int levels) {
  std::vector<TreeEdgeSet> out(terminal_sets.size());
  // walked[v] == s: set s already climbed from v. Sets run one at a time,
  // so the stamp of the current set is all the ownership needed.
  std::vector<std::size_t> walked(tree.num_vertices(), terminal_sets.size());
  for (std::size_t s = 0; s < terminal_sets.size(); ++s) {
    for (VertexId t : terminal_sets[s]) {
      VertexId v = t;
      int steps = 0;
      while (v != tree.root() && (levels < 0 || steps < levels)) {
        if (walked[v] == s) break;  // already walked from here
        walked[v] = s;
        out[s].push_back(v);
        v = tree.parent(v);
        ++steps;
      }
    }
  }
  return out;
}

std::vector<TreeEdgeSet> steiner_subtrees(
    const RootedTree& tree,
    const std::vector<std::vector<VertexId>>& terminal_sets) {
  std::vector<TreeEdgeSet> out(terminal_sets.size());
  // taken[v] == s: set s holds v (sets run one at a time, as above).
  std::vector<std::size_t> taken(tree.num_vertices(), terminal_sets.size());
  for (std::size_t s = 0; s < terminal_sets.size(); ++s) {
    const auto& ts = terminal_sets[s];
    if (ts.size() <= 1) continue;
    // The set's LCA.
    VertexId anchor = ts[0];
    for (VertexId t : ts) anchor = tree.lca(anchor, t);
    taken[anchor] = s;
    for (VertexId t : ts) {
      for (VertexId v = t; taken[v] != s; v = tree.parent(v)) {
        taken[v] = s;
        out[s].push_back(v);  // edge (v, parent(v)) — v != anchor here since
                              // the pre-taken anchor stops the walk
      }
    }
  }
  return out;
}

std::vector<TreeEdgeSet> capped_greedy(
    const RootedTree& tree,
    const std::vector<std::vector<VertexId>>& terminal_sets,
    int congestion_cap) {
  require(congestion_cap >= 1, "capped_greedy: cap must be >= 1");
  return GreedyClimb(tree, terminal_sets).run(congestion_cap).sets;
}

TunedGreedyResult tuned_greedy(
    const RootedTree& tree,
    const std::vector<std::vector<VertexId>>& terminal_sets) {
  const int d = std::max(1, tree_diameter(tree));
  GreedyClimb climb(tree, terminal_sets);
  TunedGreedyResult best;
  long long best_quality = -1;
  for (int cap = 1;; cap *= 2) {
    Rung r = climb.run(cap);
    const long long q = static_cast<long long>(r.block) * d + r.congestion;
    if (best_quality < 0 || q < best_quality) {
      best_quality = q;
      best.sets = std::move(r.sets);
      best.chosen_cap = cap;
    }
    // A rung that refused no climb is replayed exactly by every larger cap,
    // and a tie keeps the earlier rung.
    if (!r.refused || cap >= static_cast<int>(terminal_sets.size()) ||
        cap >= 1 << 20)
      break;
  }
  return best;
}

Shortcut to_shortcut(const RootedTree& tree,
                     const std::vector<TreeEdgeSet>& sets) {
  Shortcut sc;
  sc.edges_of_part.resize(sets.size());
  for (std::size_t s = 0; s < sets.size(); ++s)
    for (VertexId v : sets[s]) {
      EdgeId e = tree.parent_edge(v);
      require(e != kInvalidEdge, "to_shortcut: tree lacks edge bindings");
      sc.edges_of_part[s].push_back(e);
    }
  return sc;
}

}  // namespace mns
