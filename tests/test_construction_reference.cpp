// Reference tests that pin the construction layer's output. Test-local copies
// of the earlier implementations — capped_greedy over a global (set, vertex)
// table, the full cap ladder with its separate scoring pass, the map-based
// steiner_minor, and the apex oracle that ran the inner oracle on every
// requested cell — must return exactly what src/core returns, element order
// and chosen cap included, on seeded sweeps: Voronoi partitions of the 64x64
// grid and of random trees, the Borůvka-phase partitions of the apexed
// clique-sum chain, and the random-tree Steiner-minor sweep.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bench_instances.hpp"
#include "congest/session.hpp"
#include "core/construct_cliquesum.hpp"
#include "core/construct_tree.hpp"
#include "core/local_tree.hpp"
#include "core/oracle.hpp"
#include "core/partition.hpp"
#include "core/shortcut_engine.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "graph/algorithms.hpp"
#include "io/snapshot.hpp"
#include "structure/cells.hpp"

namespace mns {
namespace {

using Sets = std::vector<std::vector<VertexId>>;

// ------------------------------------------------------------ reference --
namespace ref {

/// (set, vertex) pairs in one insert-only open-addressing table.
class Owned {
 public:
  explicit Owned(std::size_t expected_pairs) {
    std::size_t cap = 64;
    while (cap < expected_pairs * 2) cap *= 2;
    slot_.assign(cap, 0);
    mask_ = cap - 1;
  }
  bool insert(std::size_t s, VertexId v) {
    const std::uint64_t key = pack(s, v);
    std::size_t i = probe(key);
    if (slot_[i] == key) return false;
    slot_[i] = key;
    if (++size_ * 2 > slot_.size()) grow();
    return true;
  }

 private:
  static std::uint64_t pack(std::size_t s, VertexId v) {
    return (static_cast<std::uint64_t>(s) << 32 |
            static_cast<std::uint32_t>(v)) +
           1;
  }
  static std::size_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
  [[nodiscard]] std::size_t probe(std::uint64_t key) const {
    std::size_t i = mix(key) & mask_;
    while (slot_[i] != 0 && slot_[i] != key) i = (i + 1) & mask_;
    return i;
  }
  void grow() {
    std::vector<std::uint64_t> old = std::move(slot_);
    slot_.assign(old.size() * 2, 0);
    mask_ = slot_.size() - 1;
    for (std::uint64_t key : old)
      if (key != 0) slot_[probe(key)] = key;
  }
  std::vector<std::uint64_t> slot_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

std::size_t total_terminals(const Sets& sets) {
  std::size_t total = 0;
  for (const auto& ts : sets) total += ts.size();
  return total;
}

std::vector<TreeEdgeSet> ancestor_climb(const RootedTree& tree,
                                        const Sets& sets, int levels) {
  std::vector<TreeEdgeSet> out(sets.size());
  Owned owned(total_terminals(sets));
  for (std::size_t s = 0; s < sets.size(); ++s)
    for (VertexId t : sets[s]) {
      VertexId v = t;
      int steps = 0;
      while (v != tree.root() && (levels < 0 || steps < levels)) {
        if (!owned.insert(s, v)) break;
        out[s].push_back(v);
        v = tree.parent(v);
        ++steps;
      }
    }
  return out;
}

std::vector<TreeEdgeSet> steiner_subtrees(const RootedTree& tree,
                                          const Sets& sets) {
  std::vector<TreeEdgeSet> out(sets.size());
  Owned owned(total_terminals(sets));
  for (std::size_t s = 0; s < sets.size(); ++s) {
    const auto& ts = sets[s];
    if (ts.size() <= 1) continue;
    VertexId anchor = ts[0];
    for (VertexId t : ts) anchor = tree.lca(anchor, t);
    owned.insert(s, anchor);
    for (VertexId t : ts) {
      VertexId v = t;
      while (owned.insert(s, v)) {
        out[s].push_back(v);
        v = tree.parent(v);
      }
    }
  }
  return out;
}

std::vector<TreeEdgeSet> capped_greedy(const RootedTree& tree,
                                       const Sets& sets, int cap) {
  const std::size_t S = sets.size();
  std::vector<TreeEdgeSet> out(S);
  Owned owned(total_terminals(sets));
  std::vector<int> heads_left(S, 0);
  std::vector<std::vector<std::pair<VertexId, std::size_t>>> bucket(
      tree.height() + 1);
  for (std::size_t s = 0; s < S; ++s)
    for (VertexId t : sets[s])
      if (owned.insert(s, t)) {
        ++heads_left[s];
        bucket[tree.depth(t)].push_back({t, s});
      }
  std::vector<int> edge_load(tree.num_vertices(), 0);
  for (int d = tree.height(); d >= 1; --d)
    for (auto [v, s] : bucket[d]) {
      if (heads_left[s] <= 1) continue;
      if (edge_load[v] >= cap) continue;
      ++edge_load[v];
      out[s].push_back(v);
      VertexId w = tree.parent(v);
      if (owned.insert(s, w))
        bucket[d - 1].push_back({w, s});
      else
        --heads_left[s];
    }
  return out;
}

/// Every rung of the ladder, each scored by a separate pass over its sets.
TunedGreedyResult tuned_greedy(const RootedTree& tree, const Sets& sets) {
  const int d = std::max(1, tree_diameter(tree));
  TunedGreedyResult best;
  long long best_quality = -1;
  std::vector<int> load(tree.num_vertices());
  std::vector<std::int64_t> stamp(tree.num_vertices(), -1);
  std::int64_t mark = 0;
  for (int cap = 1;; cap *= 2) {
    std::vector<TreeEdgeSet> got = ref::capped_greedy(tree, sets, cap);
    std::fill(load.begin(), load.end(), 0);
    int congestion = 0;
    for (const auto& es : got)
      for (VertexId v : es) congestion = std::max(congestion, ++load[v]);
    int block = 1;
    for (std::size_t s = 0; s < got.size(); ++s) {
      ++mark;
      int distinct = 0;
      auto touch = [&](VertexId v) {
        if (stamp[v] != mark) {
          stamp[v] = mark;
          ++distinct;
        }
      };
      for (VertexId v : got[s]) {
        touch(v);
        touch(tree.parent(v));
      }
      for (VertexId t : sets[s]) touch(t);
      block = std::max(block, distinct - static_cast<int>(got[s].size()));
    }
    long long q = static_cast<long long>(block) * d + congestion;
    if (best_quality < 0 || q < best_quality) {
      best_quality = q;
      best.sets = std::move(got);
      best.chosen_cap = cap;
    }
    if (cap >= static_cast<int>(sets.size()) || cap >= 1 << 20) break;
  }
  return best;
}

LocalTree steiner_minor(const RootedTree& T,
                        std::span<const VertexId> vertices) {
  const auto& pre = T.preorder();
  std::vector<int> tin(T.num_vertices());
  for (int i = 0; i < static_cast<int>(pre.size()); ++i) tin[pre[i]] = i;
  auto by_tin = [&](VertexId a, VertexId b) { return tin[a] < tin[b]; };
  std::vector<VertexId> terms(vertices.begin(), vertices.end());
  std::sort(terms.begin(), terms.end(), by_tin);
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::vector<VertexId> cand = terms;
  for (std::size_t i = 0; i + 1 < terms.size(); ++i)
    cand.push_back(T.lca(terms[i], terms[i + 1]));
  std::sort(cand.begin(), cand.end(), by_tin);
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

  std::map<VertexId, std::vector<VertexId>> vchildren;
  std::vector<VertexId> stack;
  for (VertexId v : cand) {
    while (!stack.empty() && !T.is_ancestor(stack.back(), v)) stack.pop_back();
    if (!stack.empty()) vchildren[stack.back()].push_back(v);
    stack.push_back(v);
  }
  std::vector<char> is_term(T.num_vertices(), 0);
  for (VertexId t : terms) is_term[t] = 1;

  LocalTree out{RootedTree(0, {kInvalidVertex}), {}, {}};
  out.to_global = terms;
  std::map<VertexId, VertexId> local_of;
  for (std::size_t i = 0; i < terms.size(); ++i)
    local_of[terms[i]] = static_cast<VertexId>(i);
  std::vector<VertexId> parent_local(terms.size(), kInvalidVertex);
  std::vector<EdgeId> real_edge(terms.size(), kInvalidEdge);
  std::map<VertexId, VertexId> rep;
  auto attach = [&](VertexId child_term, VertexId parent_term,
                    bool straight_up) {
    VertexId cl = local_of.at(child_term);
    parent_local[cl] = local_of.at(parent_term);
    if (straight_up && T.parent(child_term) == parent_term)
      real_edge[cl] = T.parent_edge(child_term);
  };
  for (auto it = cand.rbegin(); it != cand.rend(); ++it) {
    VertexId v = *it;
    std::vector<VertexId> child_reps;
    auto ch = vchildren.find(v);
    if (ch != vchildren.end())
      for (VertexId c : ch->second)
        if (rep.count(c)) child_reps.push_back(rep[c]);
    if (is_term[v]) {
      for (VertexId r : child_reps) attach(r, v, true);
      rep[v] = v;
    } else if (!child_reps.empty()) {
      rep[v] = child_reps[0];
      for (std::size_t i = 1; i < child_reps.size(); ++i)
        attach(child_reps[i], child_reps[0], false);
    }
  }
  out.tree = RootedTree(local_of.at(rep.at(cand.front())),
                        std::move(parent_local));
  out.real_parent_edge = std::move(real_edge);
  return out;
}

BagOracle make_oracle(OracleKind kind) {
  switch (kind) {
    case OracleKind::kTrivial:
      return [](const LocalInstance& inst) {
        return std::vector<TreeEdgeSet>(inst.terminal_sets.size());
      };
    case OracleKind::kSteiner:
      return [](const LocalInstance& inst) {
        return ref::steiner_subtrees(inst.tree, inst.terminal_sets);
      };
    case OracleKind::kGreedy:
      break;
  }
  return [](const LocalInstance& inst) {
    return ref::tuned_greedy(inst.tree, inst.terminal_sets).sets;
  };
}

/// Runs `inner` on every cell that some set misses.
BagOracle apex_oracle(BagOracle inner) {
  return [inner = std::move(inner)](const LocalInstance& inst) {
    const RootedTree& tree = inst.tree;
    const std::size_t S = inst.terminal_sets.size();
    std::vector<TreeEdgeSet> out(S);
    if (inst.apices.empty()) return inner(inst);
    std::vector<char> is_apex(tree.num_vertices(), 0);
    for (VertexId a : inst.apices) is_apex[a] = 1;
    std::vector<char> has_apex(S, 0);
    for (std::size_t s = 0; s < S; ++s)
      for (VertexId t : inst.terminal_sets[s])
        if (is_apex[t]) has_apex[s] = 1;
    for (std::size_t s = 0; s < S; ++s)
      if (has_apex[s])
        for (VertexId v = 0; v < tree.num_vertices(); ++v)
          if (v != tree.root()) out[s].push_back(v);
    TreeCells tc = cells_from_tree_minus_vertices(tree, inst.apices);
    if (tc.partition.num_cells() == 0) return out;
    std::vector<std::vector<CellId>> intersects(S);
    for (std::size_t s = 0; s < S; ++s) {
      if (has_apex[s]) continue;
      std::set<CellId> touched;
      for (VertexId t : inst.terminal_sets[s]) {
        CellId c = tc.partition.cell_of(t);
        if (c != kInvalidCell) touched.insert(c);
      }
      intersects[s].assign(touched.begin(), touched.end());
    }
    CellAssignment assign = assign_cells(intersects, tc.partition.num_cells());
    for (std::size_t s = 0; s < S; ++s) {
      if (has_apex[s]) continue;
      for (CellId c : assign.cells_of_part[s]) {
        for (VertexId v : tc.partition.members(c))
          if (v != tc.cell_root[c]) out[s].push_back(v);
        if (tc.uplink_target[c] != kInvalidVertex)
          out[s].push_back(tc.cell_root[c]);
      }
    }
    std::vector<std::vector<std::size_t>> requests(tc.partition.num_cells());
    for (std::size_t s = 0; s < S; ++s)
      for (CellId c : assign.missing_cells_of_part[s]) requests[c].push_back(s);
    for (CellId c = 0; c < tc.partition.num_cells(); ++c) {
      if (requests[c].empty()) continue;
      auto cell_members = tc.partition.members(c);
      std::vector<VertexId> to_outer(cell_members.begin(), cell_members.end());
      std::vector<VertexId> outer_to_cell(tree.num_vertices(), kInvalidVertex);
      for (VertexId i = 0; i < static_cast<VertexId>(to_outer.size()); ++i)
        outer_to_cell[to_outer[i]] = i;
      std::vector<VertexId> cparent(to_outer.size(), kInvalidVertex);
      for (VertexId i = 0; i < static_cast<VertexId>(to_outer.size()); ++i) {
        VertexId v = to_outer[i];
        if (v == tc.cell_root[c]) continue;
        cparent[i] = outer_to_cell[tree.parent(v)];
      }
      LocalInstance sub{
          RootedTree(outer_to_cell[tc.cell_root[c]], std::move(cparent)),
          {},
          {}};
      for (std::size_t s : requests[c]) {
        std::vector<VertexId> terms;
        for (VertexId t : inst.terminal_sets[s])
          if (outer_to_cell[t] != kInvalidVertex &&
              tc.partition.cell_of(t) == c)
            terms.push_back(outer_to_cell[t]);
        sub.terminal_sets.push_back(std::move(terms));
      }
      std::vector<TreeEdgeSet> local = inner(sub);
      for (std::size_t i = 0; i < requests[c].size(); ++i)
        for (VertexId cv : local[i]) out[requests[c][i]].push_back(to_outer[cv]);
    }
    for (auto& es : out) {
      std::sort(es.begin(), es.end());
      es.erase(std::unique(es.begin(), es.end()), es.end());
    }
    return out;
  };
}

}  // namespace ref

// -------------------------------------------------------------- helpers --

Sets member_sets(const Partition& parts) {
  Sets out;
  for (PartId p = 0; p < parts.num_parts(); ++p) {
    auto m = parts.members(p);
    out.emplace_back(m.begin(), m.end());
  }
  return out;
}

/// The two tree shapes of the sweep: the 64x64 grid (churn's planar
/// instance) and random trees, each rooted where a session roots it.
struct Shape {
  Graph g;
  RootedTree tree;
};

Shape shape(int kind, int seed) {
  Graph g;
  if (kind == 0) {
    g = gen::grid(64, 64).graph();
  } else {
    Rng rng(static_cast<unsigned>(seed));
    g = gen::random_tree(kind, rng);
  }
  RootedTree t = center_tree_factory()(g);
  return {std::move(g), std::move(t)};
}

/// Voronoi part counts from 4 to n/4.
std::vector<int> part_counts(VertexId n) {
  std::vector<int> out;
  for (int k = 4; k < n / 4; k *= 4) out.push_back(k);
  out.push_back(n / 4);
  return out;
}

/// Per part count: the Voronoi member sets, then the same parts joined in
/// pairs. A part of a tree is connected in it, so only the joined pairs
/// make climbs on a random tree meet and contend.
std::vector<Sets> sweep_sets(const Graph& g, int seed) {
  std::vector<Sets> out;
  for (int k : part_counts(g.num_vertices())) {
    Rng rng(static_cast<unsigned>(seed * 101 + k));
    Sets parts = member_sets(voronoi_partition(g, k, rng));
    Sets pairs((parts.size() + 1) / 2);
    for (std::size_t p = 0; p < parts.size(); ++p)
      pairs[p / 2].insert(pairs[p / 2].end(), parts[p].begin(),
                          parts[p].end());
    out.push_back(std::move(parts));
    out.push_back(std::move(pairs));
  }
  return out;
}

// --------------------------------------------------------------- sweeps --

/// (shape: 0 = 64x64 grid, else a random tree on that many vertices; seed)
class UniformReference
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UniformReference, TunedGreedySteinerAndAncestorMatch) {
  auto [kind, seed] = GetParam();
  const Shape sh = shape(kind, seed);
  int above_cap_one = 0;
  for (const Sets& sets : sweep_sets(sh.g, seed)) {
    const TunedGreedyResult got = tuned_greedy(sh.tree, sets);
    const TunedGreedyResult want = ref::tuned_greedy(sh.tree, sets);
    EXPECT_EQ(got.chosen_cap, want.chosen_cap) << sets.size() << " sets";
    EXPECT_EQ(got.sets, want.sets) << sets.size() << " sets";
    if (want.chosen_cap > 1) ++above_cap_one;
    EXPECT_EQ(steiner_subtrees(sh.tree, sets),
              ref::steiner_subtrees(sh.tree, sets))
        << sets.size() << " sets";
    for (int levels : {-1, 0, 1, 3})
      EXPECT_EQ(ancestor_climb(sh.tree, sets, levels),
                ref::ancestor_climb(sh.tree, sets, levels))
          << sets.size() << " sets, " << levels << " levels";
  }
  // The sweep must reach past the first rung, or a ladder that stops there
  // would pass it.
  EXPECT_GT(above_cap_one, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UniformReference,
    ::testing::Combine(::testing::Values(0, 512, 4096),
                       ::testing::Values(1, 2, 3)));

TEST(ConstructionReference, CappedGreedyAtEveryCapUpTo64) {
  for (int kind : {0, 4096}) {
    const Shape sh = shape(kind, 5);
    // The last two entries: n/4 parts, and those parts joined in pairs.
    const std::vector<Sets> all = sweep_sets(sh.g, 5);
    for (auto it = all.end() - 2; it != all.end(); ++it)
      for (int cap = 1; cap <= 64; ++cap)
        EXPECT_EQ(capped_greedy(sh.tree, *it, cap),
                  ref::capped_greedy(sh.tree, *it, cap))
            << "shape " << kind << ", " << it->size() << " sets, cap " << cap;
  }
}

/// The 200-vertex random-tree sweep of test_local_tree_properties.
class SteinerMinorReference
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SteinerMinorReference, SameLocalTree) {
  auto [seed, bag_size] = GetParam();
  Rng rng(seed);
  const VertexId n = 200;
  Graph g = gen::random_tree(n, rng);
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  std::vector<VertexId> bag;
  for (int i = 0; i < bag_size; ++i) bag.push_back(pick(rng));

  const LocalTree got = steiner_minor(t, bag);
  const LocalTree want = ref::steiner_minor(t, bag);
  EXPECT_EQ(got.to_global, want.to_global);
  EXPECT_EQ(got.real_parent_edge, want.real_parent_edge);
  ASSERT_EQ(got.tree.num_vertices(), want.tree.num_vertices());
  EXPECT_EQ(got.tree.root(), want.tree.root());
  for (VertexId v = 0; v < got.tree.num_vertices(); ++v)
    EXPECT_EQ(got.tree.parent(v), want.tree.parent(v)) << "local " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Params, SteinerMinorReference,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 13),
                       ::testing::Values(2, 5, 20, 80)));

/// Lemma 9 at top level on an apexed grid: every inner oracle kind.
TEST(ConstructionReference, ApexOracleOnApexedGrid) {
  for (int seed : {1, 2, 3}) {
    Rng rng(static_cast<unsigned>(seed));
    gen::ApexResult ar =
        gen::add_apices(gen::grid(24, 24).graph(), 2, 0.10, rng);
    RootedTree t = center_tree_factory()(ar.graph);
    for (int k : part_counts(ar.graph.num_vertices())) {
      LocalInstance inst{t, member_sets(voronoi_partition(ar.graph, k, rng)),
                         ar.apices};
      for (OracleKind kind :
           {OracleKind::kTrivial, OracleKind::kSteiner, OracleKind::kGreedy})
        EXPECT_EQ(make_apex_oracle(make_oracle(kind))(inst),
                  ref::apex_oracle(ref::make_oracle(kind))(inst))
            << "seed " << seed << ", " << k << " parts, "
            << oracle_kind_name(kind);
    }
  }
}

/// The apexed clique-sum chain of churn, over the partitions its Borůvka
/// phases actually build: each local instance's apex-oracle output, and the
/// whole shortcut against the one the session cached.
TEST(ConstructionReference, ApexChainBoruvkaPhases) {
  Rng rng(16);
  bench::ApexChain chain = bench::apexed_chain_cliquesum(16, rng);
  const StructuralCertificate cert = bench::apex_chain_certificate(chain);
  const auto& c = std::get<CliqueSumCertificate>(cert);
  congest::Session session(chain.graph, cert);
  (void)session.solve(congest::Mst{chain.weights});
  const std::vector<io::CachedShortcut> phases =
      session.core_ptr()->export_cache();
  ASSERT_GE(phases.size(), 3u);

  int instances = 0, productive_cells = 0;
  const BagOracle fresh = make_apex_oracle(make_oracle(c.local_oracle));
  const BagOracle inner = ref::make_oracle(c.local_oracle);
  const BagOracle old = ref::apex_oracle([&](const LocalInstance& cell) {
    std::vector<TreeEdgeSet> out = inner(cell);
    for (const auto& es : out)
      if (!es.empty()) {
        ++productive_cells;
        break;
      }
    return out;
  });
  for (const io::CachedShortcut& phase : phases) {
    CliqueSumShortcutOptions opt;
    opt.fold = c.fold;
    opt.bag_apices = c.bag_apices;
    opt.local_oracle = [&](const LocalInstance& inst) {
      std::vector<TreeEdgeSet> got = fresh(inst);
      EXPECT_EQ(got, old(inst)) << "instance " << instances;
      ++instances;
      return got;
    };
    const Shortcut sc =
        build_cliquesum_shortcut(session.graph(), session.tree(),
                                 Partition(phase.part_of), c.decomposition,
                                 std::move(opt));
    EXPECT_EQ(sc.edges_of_part, phase.shortcut.edges_of_part);
  }
  EXPECT_GT(instances, 0);
  // Cells where the inner oracle gives edges exist, so skipping one of them
  // would change the output.
  EXPECT_GT(productive_cells, 0);
}

}  // namespace
}  // namespace mns
