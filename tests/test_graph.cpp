// Unit and property tests for the graph substrate: Graph/GraphBuilder,
// traversals, connectivity, diameter, induced subgraphs, and UnionFind.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <type_traits>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace mns {
namespace {

Graph path_graph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph cycle_graph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

Graph complete_graph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) b.add_edge(u, v);
  return b.build();
}

TEST(GraphBuilder, EmptyGraph) {
  Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GraphBuilder, SingleVertexNoEdges) {
  Graph g = GraphBuilder(1).build();
  EXPECT_EQ(g.num_vertices(), 1);
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(-1, 0), std::invalid_argument);
}

TEST(GraphBuilder, RejectsNegativeVertexCount) {
  EXPECT_THROW(GraphBuilder(-1), std::invalid_argument);
}

TEST(GraphBuilder, ThrowsTypedGraphError) {
  // The typed error is the catchable contract (mnsctl and the update layer
  // distinguish construction failures from generic invalid_argument); it
  // remains AN invalid_argument so existing catch sites keep working.
  static_assert(std::is_base_of_v<std::invalid_argument, GraphError>);
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), GraphError);
  EXPECT_THROW(b.add_edge(0, 3), GraphError);
  EXPECT_THROW(b.add_edge(-1, 0), GraphError);
  EXPECT_THROW(GraphBuilder(-1), GraphError);
  try {
    b.add_edge(2, 5);
    FAIL() << "out-of-range add_edge did not throw";
  } catch (const GraphError& e) {
    EXPECT_NE(std::string(e.what()).find("add_edge"), std::string::npos);
  }
}

TEST(GraphBuilder, MergesParallelEdges) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(0, 1);
  Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(GraphBuilder, BuildTwiceThrows) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  (void)b.build();
  EXPECT_THROW((void)b.build(), std::logic_error);
}

TEST(Graph, NormalizesEdgeEndpoints) {
  GraphBuilder b(4);
  b.add_edge(3, 1);
  Graph g = b.build();
  EXPECT_EQ(g.edge(0).u, 1);
  EXPECT_EQ(g.edge(0).v, 3);
}

TEST(Graph, NeighborsSortedAndConsistent) {
  GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(2, 1);
  Graph g = b.build();
  auto nbrs = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
  auto eids = g.incident_edges(2);
  for (std::size_t i = 0; i < nbrs.size(); ++i)
    EXPECT_EQ(g.other_endpoint(eids[i], 2), nbrs[i]);
}

TEST(Graph, FindEdge) {
  Graph g = cycle_graph(5);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(4, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
  EdgeId e = g.find_edge(2, 3);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(g.other_endpoint(e, 2), 3);
}

TEST(Graph, OtherEndpointRejectsNonIncident) {
  Graph g = path_graph(3);
  EdgeId e = g.find_edge(0, 1);
  EXPECT_THROW((void)g.other_endpoint(e, 2), InvariantViolation);
}

TEST(Graph, CompleteGraphDegrees) {
  Graph g = complete_graph(7);
  EXPECT_EQ(g.num_edges(), 21);
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 6);
}

TEST(Bfs, PathDistances) {
  Graph g = path_graph(6);
  BfsResult r = bfs(g, 0);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(r.dist[v], v);
  EXPECT_EQ(r.parent[0], kInvalidVertex);
  for (VertexId v = 1; v < 6; ++v) EXPECT_EQ(r.parent[v], v - 1);
  EXPECT_EQ(r.max_distance(), 5);
}

TEST(Bfs, ParentEdgeBindsToGraph) {
  Graph g = cycle_graph(6);
  BfsResult r = bfs(g, 0);
  for (VertexId v = 1; v < 6; ++v) {
    ASSERT_NE(r.parent_edge[v], kInvalidEdge);
    EXPECT_EQ(g.other_endpoint(r.parent_edge[v], v), r.parent[v]);
  }
}

TEST(Bfs, DisconnectedMarksUnreached) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  Graph g = b.build();
  BfsResult r = bfs(g, 0);
  EXPECT_TRUE(r.reached(1));
  EXPECT_FALSE(r.reached(2));
  EXPECT_FALSE(r.reached(3));
}

TEST(Bfs, MultiSourceClaimsNearest) {
  Graph g = path_graph(10);
  std::vector<VertexId> sources{0, 9};
  BfsResult r = bfs_multi(g, sources);
  EXPECT_EQ(r.source[2], 0);
  EXPECT_EQ(r.source[8], 9);
  EXPECT_EQ(r.dist[4], 4);
  EXPECT_EQ(r.dist[6], 3);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  Graph g = path_graph(3);
  EXPECT_THROW(bfs(g, 7), std::invalid_argument);
}

TEST(Components, CountsAndLabels) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(4, 5);
  Graph g = b.build();
  Components c = connected_components(g);
  EXPECT_EQ(c.count, 3);  // {0,1,2}, {3}, {4,5}
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_NE(c.label[0], c.label[3]);
  EXPECT_EQ(c.label[4], c.label[5]);
}

TEST(Components, ConnectedChecks) {
  EXPECT_TRUE(is_connected(cycle_graph(5)));
  EXPECT_TRUE(is_connected(GraphBuilder(0).build()));
  GraphBuilder b(2);
  EXPECT_FALSE(is_connected(b.build()));
}

TEST(ConnectedSubset, DetectsConnectivity) {
  Graph g = cycle_graph(8);
  std::vector<VertexId> arc{1, 2, 3};
  EXPECT_TRUE(is_connected_subset(g, arc));
  std::vector<VertexId> split{1, 2, 5, 6};
  EXPECT_FALSE(is_connected_subset(g, split));
  std::vector<VertexId> whole{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_TRUE(is_connected_subset(g, whole));
  EXPECT_TRUE(is_connected_subset(g, std::vector<VertexId>{}));
  EXPECT_TRUE(is_connected_subset(g, std::vector<VertexId>{3}));
}

TEST(Diameter, ExactValues) {
  EXPECT_EQ(diameter_exact(path_graph(10)), 9);
  EXPECT_EQ(diameter_exact(cycle_graph(10)), 5);
  EXPECT_EQ(diameter_exact(complete_graph(5)), 1);
}

TEST(Diameter, EccentricityThrowsOnDisconnected) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  EXPECT_THROW((void)eccentricity(b.build(), 0), std::invalid_argument);
}

TEST(Diameter, ApproximateCenterHasLowEccentricity) {
  Graph g = path_graph(101);
  Rng rng(7);
  VertexId c = approximate_center(g, rng);
  EXPECT_LE(eccentricity(g, c), 51);
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  Graph g = cycle_graph(6);
  std::vector<VertexId> verts{0, 1, 2, 4};
  InducedSubgraph s = induced_subgraph(g, verts);
  EXPECT_EQ(s.graph.num_vertices(), 4);
  EXPECT_EQ(s.graph.num_edges(), 2);  // {0,1} and {1,2}
  // Mapping is a bijection onto the requested set.
  std::set<VertexId> back(s.to_parent.begin(), s.to_parent.end());
  EXPECT_EQ(back, std::set<VertexId>(verts.begin(), verts.end()));
  for (VertexId local = 0; local < 4; ++local)
    EXPECT_EQ(s.to_local[s.to_parent[local]], local);
  // Edge back-mapping points at real parent edges with matching endpoints.
  for (EdgeId le = 0; le < s.graph.num_edges(); ++le) {
    const Edge& lo = s.graph.edge(le);
    const Edge& pa = g.edge(s.edge_to_parent[le]);
    std::set<VertexId> mapped{s.to_parent[lo.u], s.to_parent[lo.v]};
    EXPECT_EQ(mapped, (std::set<VertexId>{pa.u, pa.v}));
  }
}

TEST(InducedSubgraph, DeduplicatesInput) {
  Graph g = path_graph(4);
  std::vector<VertexId> verts{2, 1, 2, 1};
  InducedSubgraph s = induced_subgraph(g, verts);
  EXPECT_EQ(s.graph.num_vertices(), 2);
  EXPECT_EQ(s.graph.num_edges(), 1);
}

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_EQ(uf.num_sets(), 4);
  EXPECT_EQ(uf.set_size(1), 2);
}

TEST(UnionFind, DenseLabelsPartitionCorrectly) {
  UnionFind uf(6);
  uf.unite(0, 3);
  uf.unite(3, 5);
  uf.unite(1, 2);
  std::vector<VertexId> labels = uf.dense_labels();
  EXPECT_EQ(labels[0], labels[3]);
  EXPECT_EQ(labels[0], labels[5]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_NE(labels[0], labels[1]);
  EXPECT_NE(labels[4], labels[0]);
  VertexId max_label = *std::max_element(labels.begin(), labels.end());
  EXPECT_EQ(max_label + 1, uf.num_sets());
}

TEST(UnionFind, RejectsNegativeSize) {
  EXPECT_THROW(UnionFind(-2), std::invalid_argument);
}

// Property sweep: on random connected graphs, BFS distance satisfies the
// triangle property along edges and components agree with DSU over edges.
class GraphPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphPropertyTest, BfsAndComponentsAgreeWithUnionFind) {
  Rng rng(GetParam());
  const VertexId n = 60;
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  GraphBuilder b(n);
  for (int i = 0; i < 90; ++i) {
    VertexId u = pick(rng), v = pick(rng);
    if (u != v) b.add_edge(u, v);
  }
  Graph g = b.build();

  Components c = connected_components(g);
  UnionFind uf(n);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    uf.unite(g.edge(e).u, g.edge(e).v);
  EXPECT_EQ(c.count, uf.num_sets());
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_EQ(c.label[g.edge(e).u], c.label[g.edge(e).v]);

  BfsResult r = bfs(g, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    if (r.reached(ed.u) && r.reached(ed.v)) {
      EXPECT_LE(std::abs(r.dist[ed.u] - r.dist[ed.v]), 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 99));

}  // namespace
}  // namespace mns
