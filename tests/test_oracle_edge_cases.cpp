// Edge cases of the bag oracles (the local constructors of Theorems 5-8):
// empty terminal sets, all-apex instances, singleton trees, and oracle
// contract conformance (set counts, local-id ranges).
#include <gtest/gtest.h>

#include "core/oracle.hpp"
#include "gen/basic.hpp"
#include "graph/algorithms.hpp"

namespace mns {
namespace {

RootedTree star_tree(VertexId leaves) {
  std::vector<VertexId> parent(leaves + 1, 0);
  parent[0] = kInvalidVertex;
  return RootedTree(0, parent);
}

LocalInstance star_instance(VertexId leaves,
                            std::vector<std::vector<VertexId>> terminal_sets,
                            std::vector<VertexId> apices = {}) {
  return LocalInstance{star_tree(leaves), std::move(terminal_sets),
                       std::move(apices)};
}

TEST(Oracles, AllReturnOneOutputPerTerminalSet) {
  LocalInstance inst = star_instance(6, {{1, 2}, {3}, {}, {4, 5, 6}});
  for (auto make : {make_trivial_oracle, make_steiner_oracle,
                    make_greedy_oracle}) {
    BagOracle oracle = make();
    auto out = oracle(inst);
    EXPECT_EQ(out.size(), 4u);
    // Every returned edge key is a valid non-root local vertex.
    for (const auto& es : out)
      for (VertexId v : es) {
        EXPECT_GT(v, 0);
        EXPECT_LE(v, 6);
      }
  }
}

TEST(Oracles, EmptyTerminalSetGetsNothingFromSteiner) {
  LocalInstance inst = star_instance(4, {{}, {1, 2}});
  auto out = make_steiner_oracle()(inst);
  EXPECT_TRUE(out[0].empty());
  EXPECT_FALSE(out[1].empty());
}

TEST(Oracles, SingletonTerminalNeedsNoEdges) {
  // The BagOracle rule (oracle.hpp) that lets make_apex_oracle skip cells:
  // a set with at most one terminal gets no edge, beside a set that does.
  LocalInstance inst = star_instance(4, {{3}, {}, {1, 2}});
  for (auto make : {make_trivial_oracle, make_steiner_oracle,
                    make_greedy_oracle}) {
    auto out = make()(inst);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(out[0].empty());
    EXPECT_TRUE(out[1].empty());
  }
}

TEST(ApexOracle, AllApexInstanceGivesWholeTreeToApexSets) {
  // Tree = star; the hub is an apex; one set contains it.
  LocalInstance inst = star_instance(5, {{0, 1}, {2, 3}}, {0});
  auto out = make_apex_oracle(make_greedy_oracle())(inst);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].size(), 5u);  // whole tree for the apex-containing set
  // The other set intersects only 2 (singleton) cells, so Lemma 5's
  // elimination legitimately drops it: it receives no edges and its 2 block
  // components stay within the "missing <= 2 cells" budget.
  EXPECT_LE(out[1].size(), 5u);
}

TEST(ApexOracle, EveryVertexApexDegenerate) {
  // All vertices are apices: every set containing any vertex gets the tree;
  // cells are empty and nothing crashes.
  LocalInstance inst = star_instance(3, {{1}, {2, 3}}, {0, 1, 2, 3});
  auto out = make_apex_oracle(make_greedy_oracle())(inst);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].size(), 3u);
  EXPECT_EQ(out[1].size(), 3u);
}

TEST(ApexOracle, SingleVertexTree) {
  std::vector<VertexId> parent{kInvalidVertex};
  LocalInstance inst{RootedTree(0, parent), {{0}}, {}};
  auto out = make_apex_oracle(make_greedy_oracle())(inst);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].empty());
}

TEST(ApexOracle, NoTerminalSetsNoCrash) {
  LocalInstance inst = star_instance(3, {}, {0});
  auto out = make_apex_oracle(make_trivial_oracle())(inst);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace mns
