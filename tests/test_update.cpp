// Incremental update contract (DESIGN.md §12).
//
// The load-bearing guarantees:
//
// 1. MINIMUM WORK — a weight-only batch moves NOTHING structural (same graph
//    object, every cache entry kept); a structural batch invalidates exactly
//    the entries whose partitions touch the edit and migrates the rest live,
//    so an untouched probe partition stays a HIT with zero construction
//    charge across edge removals, insertions, and vertex renumbering.
//
// 2. ANSWER PARITY — after any update, solves on the warm session produce
//    payloads identical to a fresh Session built over the post-update graph
//    and certificate: incremental maintenance changes cost, never answers.
//
// 3. TYPED FAILURE — batches the structures cannot absorb (bad ids, edges a
//    tree decomposition does not cover) throw UpdateError and leave the
//    session fully usable and unchanged.
//
// Snapshot v2 (the update-history section) round-trips here too: files
// without churn stay at v1, files with churn carry their UpdateHistory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "congest/session.hpp"
#include "core/partition.hpp"
#include "gen/clique_sum.hpp"
#include "gen/planar.hpp"
#include "graph/delta.hpp"
#include "io/snapshot.hpp"
#include "structure/tree_decomposition.hpp"

namespace mns {
namespace {

using congest::Aggregate;
using congest::AggValue;
using congest::ExactSssp;
using congest::Mst;
using congest::RunReport;
using congest::Session;
using congest::UpdateStats;

Graph path_graph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

/// BFS-tree edges get the light weights 1..n-1 (in discovery order), every
/// other edge is heavier than any all-light path: the MST is the BFS tree,
/// and re-weighting a heavy edge to a LARGER value changes no comparison
/// Boruvka ever makes (bench_sessions' E21 hit-preservation trick, in
/// miniature).
std::vector<Weight> tree_light_weights(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<Weight> w(static_cast<std::size_t>(g.num_edges()),
                        10 * static_cast<Weight>(n) * static_cast<Weight>(n));
  std::vector<VertexId> frontier{0};
  seen[0] = 1;
  Weight light = 1;
  while (!frontier.empty()) {
    std::vector<VertexId> next;
    for (const VertexId v : frontier) {
      auto nbrs = g.neighbors(v);
      auto eids = g.incident_edges(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (seen[static_cast<std::size_t>(nbrs[i])]) continue;
        seen[static_cast<std::size_t>(nbrs[i])] = 1;
        w[static_cast<std::size_t>(eids[i])] = light++;
        next.push_back(nbrs[i]);
      }
    }
    frontier = std::move(next);
  }
  // Make the heavy tail distinct so the MST stays unique.
  Weight bump = 0;
  for (Weight& x : w)
    if (x >= 10 * static_cast<Weight>(n) * static_cast<Weight>(n)) x += bump++;
  return w;
}

std::vector<AggValue> ramp_values(VertexId n) {
  std::vector<AggValue> v(static_cast<std::size_t>(n));
  for (VertexId i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = {(3 * i) % 17, i};
  return v;
}

std::vector<PartId> remap_parts(const std::vector<PartId>& part_of,
                                const UpdateStats& stats, VertexId new_n) {
  std::vector<PartId> out(static_cast<std::size_t>(new_n), kNoPart);
  for (std::size_t v = 0; v < part_of.size(); ++v)
    if (stats.vertex_map[v] != kInvalidVertex)
      out[static_cast<std::size_t>(stats.vertex_map[v])] = part_of[v];
  return out;
}

/// The rebuild oracle: a cold Session over the warm session's CURRENT graph
/// and certificate. Equal payloads = incremental maintenance is invisible.
Session oracle_of(const Session& warm) {
  return Session(warm.graph(), warm.certificate());
}

void expect_payload_parity(Session& warm, Session& oracle,
                           const std::vector<Weight>& w) {
  const RunReport wm = warm.solve(Mst{w});
  const RunReport om = oracle.solve(Mst{w});
  std::vector<EdgeId> we = wm.mst().edges, oe = om.mst().edges;
  std::sort(we.begin(), we.end());
  std::sort(oe.begin(), oe.end());
  EXPECT_EQ(we, oe);
  EXPECT_EQ(wm.mst().fragment_of, om.mst().fragment_of);
  const RunReport ws = warm.solve(ExactSssp{w, 0});
  const RunReport os = oracle.solve(ExactSssp{w, 0});
  EXPECT_EQ(ws.sssp().dist, os.sssp().dist);
}

// ------------------------------------------------------------ delta layer --

TEST(GraphDeltaTest, MapsAndTouchedSets) {
  Graph g = path_graph(4);
  UpdateBatch batch;
  batch.remove_edges.push_back(g.find_edge(1, 2));
  batch.add_vertices = 1;
  batch.insert_edges.push_back({1, 4, 7});  // 4 = the new vertex (extended id)
  batch.insert_edges.push_back({2, 4, 9});
  const GraphDelta d = apply_delta(g, batch);
  EXPECT_EQ(d.graph.num_vertices(), 5);
  EXPECT_EQ(d.graph.num_edges(), 4);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(d.vertex_map[v], v);
  EXPECT_EQ(d.edge_map[static_cast<std::size_t>(g.find_edge(1, 2))],
            kInvalidEdge);
  EXPECT_NE(d.graph.find_edge(1, 4), kInvalidEdge);
  EXPECT_NE(d.graph.find_edge(2, 4), kInvalidEdge);
  // Touched: endpoints of removed/inserted edges plus the new vertex.
  EXPECT_TRUE(d.touched[1]);
  EXPECT_TRUE(d.touched[2]);
  EXPECT_TRUE(d.touched[4]);
  EXPECT_FALSE(d.touched[0]);
  EXPECT_FALSE(d.touched[3]);
}

TEST(GraphDeltaTest, WeightCarry) {
  Graph g = path_graph(4);
  std::vector<Weight> w{10, 20, 30};
  UpdateBatch batch;
  batch.weight_changes.push_back({g.find_edge(0, 1), 11});
  batch.remove_edges.push_back(g.find_edge(2, 3));
  batch.insert_edges.push_back({0, 3, 99});
  const GraphDelta d = apply_delta(g, batch);
  const std::vector<Weight> nw = remap_weights(g, d.graph, d, batch, w);
  ASSERT_EQ(nw.size(), static_cast<std::size_t>(d.graph.num_edges()));
  EXPECT_EQ(nw[static_cast<std::size_t>(d.graph.find_edge(0, 1))], 11);
  EXPECT_EQ(nw[static_cast<std::size_t>(d.graph.find_edge(1, 2))], 20);
  EXPECT_EQ(nw[static_cast<std::size_t>(d.graph.find_edge(0, 3))], 99);
}

TEST(GraphDeltaTest, TypedErrors) {
  Graph g = path_graph(4);
  {
    UpdateBatch b;
    b.remove_edges.push_back(99);
    EXPECT_THROW((void)apply_delta(g, b), UpdateError);
  }
  {
    UpdateBatch b;  // already present
    b.insert_edges.push_back({0, 1, 5});
    EXPECT_THROW((void)apply_delta(g, b), UpdateError);
  }
  {
    UpdateBatch b;  // same edge twice in one batch
    b.insert_edges.push_back({0, 2, 5});
    b.insert_edges.push_back({2, 0, 6});
    EXPECT_THROW((void)apply_delta(g, b), UpdateError);
  }
  {
    UpdateBatch b;  // endpoint beyond the extended id space
    b.insert_edges.push_back({0, 7, 5});
    EXPECT_THROW((void)apply_delta(g, b), UpdateError);
  }
  {
    UpdateBatch b;
    b.remove_vertices.push_back(4);
    EXPECT_THROW((void)apply_delta(g, b), UpdateError);
  }
  {
    UpdateBatch b;
    b.weight_changes.push_back({99, 1});
    std::vector<Weight> w{1, 2, 3};
    EXPECT_THROW(apply_weight_changes(b, w), UpdateError);
  }
}

// -------------------------------------------------- weight-only fast path --

TEST(SessionUpdateTest, WeightOnlyKeepsEveryEntry) {
  Session s(gen::grid_graph(8, 8));
  std::vector<Weight> w = tree_light_weights(s.graph());
  (void)s.solve(Mst{w});
  const std::size_t warm_entries = s.cache_size();
  ASSERT_GT(warm_entries, 0u);
  const Graph* graph_before = &s.graph();

  // Push the heaviest edge even higher: no Boruvka comparison changes.
  EdgeId heaviest = 0;
  for (EdgeId e = 1; e < s.graph().num_edges(); ++e)
    if (w[static_cast<std::size_t>(e)] > w[static_cast<std::size_t>(heaviest)])
      heaviest = e;
  UpdateBatch batch;
  batch.weight_changes.push_back(
      {heaviest, w[static_cast<std::size_t>(heaviest)] + 1000});
  const UpdateStats stats = s.update(batch, &w);

  EXPECT_FALSE(stats.structural);
  EXPECT_EQ(stats.entries_kept, warm_entries);
  EXPECT_EQ(stats.entries_invalidated, 0u);
  EXPECT_EQ(&s.graph(), graph_before);  // nothing structural moved
  EXPECT_EQ(s.cache_size(), warm_entries);
  EXPECT_EQ(w[static_cast<std::size_t>(heaviest)],
            tree_light_weights(s.graph())[static_cast<std::size_t>(heaviest)] +
                1000);

  const RunReport again = s.solve(Mst{w});
  EXPECT_EQ(again.cache_misses, 0);
  EXPECT_EQ(again.charged_construction_rounds, 0);
  EXPECT_GT(again.cache_hits, 0);
  EXPECT_EQ(s.core_ptr()->history().updates_applied, 1u);
}

TEST(SessionUpdateTest, WeightChangesWithoutVectorThrow) {
  Session s(path_graph(4));
  UpdateBatch batch;
  batch.weight_changes.push_back({0, 5});
  EXPECT_THROW((void)s.update(batch), UpdateError);
  EXPECT_EQ(s.graph().num_edges(), 3);  // unchanged, still usable
  (void)s.solve(congest::Bfs{0});
}

// ------------------------------------------- structural: dirty-set limits --

TEST(SessionUpdateTest, InvalidationIsLocalized) {
  Session s(gen::grid_graph(8, 8));
  std::vector<Weight> w = tree_light_weights(s.graph());
  const VertexId n = s.graph().num_vertices();
  // Probe A: row 0. Probe B: row 7 — where the edit lands.
  const Partition probe_a = ring_sectors(n, 0, 8, 2);
  const Partition probe_b = ring_sectors(n, 56, 8, 2);
  (void)s.solve(Aggregate{probe_a, ramp_values(n)});
  (void)s.solve(Aggregate{probe_b, ramp_values(n)});
  ASSERT_EQ(s.cache_size(), 2u);

  UpdateBatch batch;
  batch.remove_edges.push_back(s.graph().find_edge(62, 63));
  const UpdateStats stats = s.update(batch, &w);
  EXPECT_TRUE(stats.structural);
  EXPECT_EQ(stats.entries_kept, 1u);         // probe A migrated live
  EXPECT_EQ(stats.entries_invalidated, 1u);  // probe B touched the edit
  ASSERT_EQ(w.size(), static_cast<std::size_t>(s.graph().num_edges()));

  const RunReport hit = s.solve(Aggregate{probe_a, ramp_values(n)});
  EXPECT_EQ(hit.cache_hits, 1);
  EXPECT_EQ(hit.cache_misses, 0);
  EXPECT_EQ(hit.charged_construction_rounds, 0);
  const RunReport miss = s.solve(Aggregate{probe_b, ramp_values(n)});
  EXPECT_EQ(miss.cache_misses, 1);

  Session oracle = oracle_of(s);
  expect_payload_parity(s, oracle, w);
}

TEST(SessionUpdateTest, TreeEdgeRemovalPatchesSubpaths) {
  Session s(gen::grid_graph(8, 8));
  std::vector<Weight> w = tree_light_weights(s.graph());
  const RootedTree& t = s.tree();  // force-build so update() must patch it
  VertexId v = s.graph().num_vertices() - 1;
  if (v == t.root()) --v;
  const EdgeId tree_edge = t.parent_edge(v);
  ASSERT_NE(tree_edge, kInvalidEdge);

  UpdateBatch batch;
  batch.remove_edges.push_back(tree_edge);
  const UpdateStats stats = s.update(batch, &w);
  EXPECT_GE(stats.subpaths_rebuilt, 1u);  // the severed subpath was re-hung

  Session oracle = oracle_of(s);
  expect_payload_parity(s, oracle, w);
}

TEST(SessionUpdateTest, InsertEdgeAndVertexParity) {
  Session s(gen::grid_graph(6, 6));
  std::vector<Weight> w = tree_light_weights(s.graph());
  const VertexId n = s.graph().num_vertices();
  const Partition probe = ring_sectors(n, 30, 6, 2);  // last row, far from 0/1
  std::vector<PartId> probe_parts(probe.part_of_all().begin(),
                                  probe.part_of_all().end());
  (void)s.solve(Aggregate{probe, ramp_values(n)});

  const Weight heavy = 10 * static_cast<Weight>(n) * static_cast<Weight>(n) +
                       static_cast<Weight>(s.graph().num_edges()) + 100;
  UpdateBatch batch;
  batch.add_vertices = 1;
  batch.insert_edges.push_back({0, n, heavy});
  batch.insert_edges.push_back({1, n, heavy + 1});
  const UpdateStats stats = s.update(batch, &w);
  EXPECT_TRUE(stats.structural);
  EXPECT_EQ(s.graph().num_vertices(), n + 1);
  EXPECT_EQ(stats.entries_kept, 1u);
  ASSERT_EQ(w.size(), static_cast<std::size_t>(s.graph().num_edges()));

  // The migrated probe still serves for free (ids unchanged on survivors).
  probe_parts = remap_parts(probe_parts, stats, s.graph().num_vertices());
  const RunReport hit =
      s.solve(Aggregate{Partition(probe_parts), ramp_values(n + 1)});
  EXPECT_EQ(hit.cache_hits, 1);
  EXPECT_EQ(hit.charged_construction_rounds, 0);

  Session oracle = oracle_of(s);
  expect_payload_parity(s, oracle, w);
}

TEST(SessionUpdateTest, RemoveVertexRenumbersSurvivors) {
  // Ancestor shortcuts stay within a few tree levels of their parts, so the
  // probe's entry genuinely loses no edge when the far corner disappears.
  // (A greedy shortcut's region can span the whole tree — then removing ANY
  // vertex loses edges the entry used, and invalidation is correct.)
  Session s(gen::grid_graph(6, 6), ancestor_certificate(3));
  std::vector<Weight> w = tree_light_weights(s.graph());
  const VertexId n = s.graph().num_vertices();
  const Partition probe = ring_sectors(n, 30, 6, 2);
  std::vector<PartId> probe_parts(probe.part_of_all().begin(),
                                  probe.part_of_all().end());
  (void)s.solve(Aggregate{probe, ramp_values(n)});

  UpdateBatch batch;
  batch.remove_vertices.push_back(0);  // every survivor's id shifts down
  const UpdateStats stats = s.update(batch, &w);
  EXPECT_EQ(s.graph().num_vertices(), n - 1);
  EXPECT_EQ(stats.vertex_map[0], kInvalidVertex);
  for (VertexId v = 1; v < n; ++v) EXPECT_EQ(stats.vertex_map[v], v - 1);
  EXPECT_EQ(stats.entries_kept, 1u);

  probe_parts = remap_parts(probe_parts, stats, s.graph().num_vertices());
  const RunReport hit =
      s.solve(Aggregate{Partition(probe_parts), ramp_values(n - 1)});
  EXPECT_EQ(hit.cache_hits, 1);
  EXPECT_EQ(hit.charged_construction_rounds, 0);

  Session oracle = oracle_of(s);
  expect_payload_parity(s, oracle, w);
}

// ----------------------------------------- certificate family maintenance --

TEST(SessionUpdateTest, TreewidthRejectsUncoveredInsert) {
  Graph g = path_graph(6);
  std::vector<std::vector<VertexId>> bags;
  std::vector<BagId> parent;
  for (VertexId i = 0; i + 1 < 6; ++i) {
    bags.push_back({i, i + 1});
    parent.push_back(static_cast<BagId>(i) - 1);
  }
  Session s(g, treewidth_certificate(
                   TreeDecomposition(std::move(bags), std::move(parent))));
  (void)s.solve(congest::Bfs{0});
  const std::size_t entries = s.cache_size();
  const Graph* graph_before = &s.graph();

  UpdateBatch batch;
  batch.insert_edges.push_back({0, 5, 1});  // no bag covers {0, 5}
  EXPECT_THROW((void)s.update(batch), UpdateError);

  // Typed failure left the session untouched and fully usable.
  EXPECT_EQ(&s.graph(), graph_before);
  EXPECT_EQ(s.cache_size(), entries);
  (void)s.solve(congest::Bfs{0});
}

TEST(SessionUpdateTest, TreewidthCoveredChurnParity) {
  Graph g = path_graph(6);
  std::vector<std::vector<VertexId>> bags;
  std::vector<BagId> parent;
  for (VertexId i = 0; i + 1 < 6; ++i) {
    bags.push_back({i, i + 1});
    parent.push_back(static_cast<BagId>(i) - 1);
  }
  Session s(g, treewidth_certificate(
                   TreeDecomposition(std::move(bags), std::move(parent))));
  std::vector<Weight> w{1, 2, 3, 4, 5};
  // Grow the path by one covered vertex: a new leaf hanging off vertex 5.
  UpdateBatch batch;
  batch.add_vertices = 1;
  batch.insert_edges.push_back({5, 6, 6});
  (void)s.update(batch, &w);
  EXPECT_EQ(s.graph().num_vertices(), 7);
  Session oracle = oracle_of(s);
  expect_payload_parity(s, oracle, w);
}

TEST(SessionUpdateTest, CliqueSumToggleParity) {
  // Two triangle bags glued at an edge (2-clique-sum).
  GraphBuilder tb(3);
  tb.add_edge(0, 1);
  tb.add_edge(1, 2);
  tb.add_edge(0, 2);
  Graph tri = tb.build();
  std::vector<gen::BagInput> bags(2);
  for (auto& b : bags) {
    b.graph = tri;
    b.glue_cliques = gen::default_glue_cliques(tri, 2);
  }
  Rng rng(7);
  gen::CliqueSumResult cs = gen::compose_clique_sum(bags, 2, 0.0, rng);
  Session s(cs.graph, cliquesum_certificate(cs.decomposition));
  std::vector<Weight> w(static_cast<std::size_t>(s.graph().num_edges()));
  for (EdgeId e = 0; e < s.graph().num_edges(); ++e)
    w[static_cast<std::size_t>(e)] = e + 1;

  // Toggle an in-bag edge that is NOT part of the identified glue clique
  // (whose edges must stay present for the decomposition to remain valid).
  const std::span<const EdgeId> bag0 = cs.decomposition.bag_edges(0);
  const auto bag1_verts = cs.decomposition.bag_vertices(1);
  auto in_bag1 = [&](VertexId v) {
    return std::find(bag1_verts.begin(), bag1_verts.end(), v) !=
           bag1_verts.end();
  };
  EdgeId pick = kInvalidEdge;
  for (const EdgeId e : bag0) {
    const Edge& ed = s.graph().edge(e);
    if (!(in_bag1(ed.u) && in_bag1(ed.v))) {
      pick = e;
      break;
    }
  }
  ASSERT_NE(pick, kInvalidEdge);
  const Edge toggled = s.graph().edge(pick);
  UpdateBatch remove;
  remove.remove_edges.push_back(pick);
  (void)s.update(remove, &w);
  {
    Session oracle = oracle_of(s);
    expect_payload_parity(s, oracle, w);
  }
  UpdateBatch insert;
  insert.insert_edges.push_back({toggled.u, toggled.v, 1000});
  (void)s.update(insert, &w);
  {
    Session oracle = oracle_of(s);
    expect_payload_parity(s, oracle, w);
  }
}

// ------------------------------------------------- snapshot v2 round trip --

TEST(SessionUpdateTest, SnapshotHistoryRoundTrip) {
  const std::string fresh_path = "test_update_fresh.snap";
  const std::string churned_path = "test_update_churned.snap";
  Session s(gen::grid_graph(4, 4));
  std::vector<Weight> w = tree_light_weights(s.graph());
  (void)s.solve(Mst{w});

  // No churn yet: the writer stays at v1 (old readers keep working).
  s.save(fresh_path, w);
  {
    const io::Snapshot snap = io::read_snapshot(fresh_path);
    EXPECT_EQ(snap.version, 1u);
    EXPECT_FALSE(snap.history.any());
  }

  UpdateBatch batch;
  batch.remove_edges.push_back(s.graph().find_edge(14, 15));
  const UpdateStats stats = s.update(batch, &w);
  s.save(churned_path, w);
  {
    const io::Snapshot snap = io::read_snapshot(churned_path);
    EXPECT_EQ(snap.version, 2u);  // churn forces the v2 history section
    EXPECT_EQ(snap.history.updates_applied, 1u);
    EXPECT_EQ(snap.history.entries_kept, stats.entries_kept);
    EXPECT_EQ(snap.history.entries_invalidated, stats.entries_invalidated);
    EXPECT_EQ(snap.history.subpaths_rebuilt, stats.subpaths_rebuilt);
  }

  // Restore carries the history forward; further churn accumulates on it.
  Session restored = Session::restore(churned_path);
  EXPECT_EQ(restored.core_ptr()->history().updates_applied, 1u);
  UpdateBatch more;
  more.weight_changes.push_back({0, w[0] + 5});
  (void)restored.update(more, &w);
  EXPECT_EQ(restored.core_ptr()->history().updates_applied, 2u);

  std::remove(fresh_path.c_str());
  std::remove(churned_path.c_str());
}

TEST(SessionUpdateTest, BadBatchLeavesSessionUsable) {
  Session s(gen::grid_graph(4, 4));
  std::vector<Weight> w = tree_light_weights(s.graph());
  (void)s.solve(Mst{w});
  const std::size_t entries = s.cache_size();

  UpdateBatch batch;
  batch.remove_edges.push_back(kInvalidEdge);
  EXPECT_THROW((void)s.update(batch, &w), UpdateError);

  EXPECT_EQ(s.cache_size(), entries);
  const RunReport again = s.solve(Mst{w});
  EXPECT_EQ(again.cache_misses, 0);
  EXPECT_EQ(again.charged_construction_rounds, 0);
}

}  // namespace
}  // namespace mns
