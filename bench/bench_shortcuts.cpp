// The paper's structural claims in one table: per family, the block and
// congestion of the shortcuts each construction builds, the width of the
// Genus+Vortex decompositions, the gate size s and cell assignment beta, and
// the round cost of the distributed construction. One function per
// experiment; every row is tagged "experiment": "E<k>" and carries the
// reference bound the paper states for it as ref_* fields. Writes
// BENCH_shortcuts.json, which CI diffs against bench/baselines/shortcuts.json
// (DESIGN.md §8). Fixed seeds and no options, so every run gives the same
// rows; a failed decomposition or gate validation throws.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "congest/distributed_shortcut.hpp"
#include "congest/simulator.hpp"
#include "gen/almost_embeddable.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/lk_family.hpp"
#include "gen/planar.hpp"
#include "gen/surfaces.hpp"
#include "gen/vortex.hpp"
#include "structure/cells.hpp"
#include "structure/clique_sum.hpp"
#include "structure/gates.hpp"
#include "structure/surface_decomposition.hpp"

using namespace mns;

namespace {

/// BFS tree rooted near the graph center (height <= D).
RootedTree center_tree(const Graph& g) { return center_tree_factory()(g); }

ShortcutMetrics build(const Graph& g, const RootedTree& t,
                      const Partition& parts,
                      const StructuralCertificate& cert) {
  return ShortcutEngine::global().build(g, t, parts, cert).metrics;
}

/// Voronoi seed count ~sqrt(n), at least 2.
int sqrt_seeds(VertexId n) {
  return std::max(2, static_cast<int>(std::sqrt(n)));
}

using bench::Method;
using bench::print;
using bench::row;

/// One row per (instance, construction) pair: builds `parts`' shortcut
/// through the engine and records what it measured (E1, E6, E9, E10).
bench::JsonRow& build_row(bench::JsonReport& report, const char* experiment,
                          const std::string& family, const Graph& g,
                          const RootedTree& t, const Partition& parts,
                          const char* method,
                          const StructuralCertificate& cert) {
  const ShortcutMetrics m = build(g, t, parts, cert);
  return row(report, experiment).set("family", family)
      .set("n", g.num_vertices()).set("method", method).set_metrics(m);
}

/// An s x s grid on the genus-`genus` surface with `vortices` depth-`depth`
/// vortices on disjoint simple faces, and the Lemma 2-3 decomposition of
/// the result (E5, E6).
struct VortexInstance {
  EmbeddedGraph base;
  Graph graph;
  TreeDecomposition decomposition;
};

VortexInstance surface_with_vortices(int s, int genus, int vortices,
                                     int depth, Rng& rng) {
  EmbeddedGraph base = gen::surface_grid(s, s, genus, rng);
  Graph current = base.graph();
  std::vector<VortexSpec> specs;
  std::vector<char> used(base.graph().num_vertices(), 0);
  for (int f = 0; f < base.num_faces() &&
                  static_cast<int>(specs.size()) < vortices;
       ++f) {
    if (!base.face_is_simple_cycle(f)) continue;
    auto fv = base.face_vertices(f);
    if (std::any_of(fv.begin(), fv.end(),
                    [&](VertexId v) { return used[v] != 0; }))
      continue;
    for (VertexId v : fv) used[v] = 1;
    gen::VortexResult vr = gen::add_vortex(current, fv, depth, 4, rng);
    current = std::move(vr.graph);
    specs.push_back(std::move(vr.vortex));
  }
  require(static_cast<int>(specs.size()) == vortices,
          "surface_with_vortices: too few disjoint simple faces");
  TreeDecomposition td = surface_bfs_decomposition(base, 0);
  if (!specs.empty()) td = augment_with_vortices(td, current, specs);
  require(td.validate(current).empty(),
          "surface_with_vortices: invalid decomposition");
  return {std::move(base), std::move(current), std::move(td)};
}

/// Voronoi cells of a random maximal planar graph with their boundary gates
/// (E7, E8). Throws unless the gates satisfy Lemma 7's properties 1-5; gate_s
/// is the measured gate parameter s.
struct GatedCells {
  EmbeddedGraph embedded;
  CellPartition cells;
  double gate_s;
};

GatedCells gated_voronoi_cells(int n, int seeds, Rng& rng) {
  EmbeddedGraph eg = gen::random_maximal_planar(n, rng);
  const Graph& g = eg.graph();
  Partition vor = voronoi_partition(g, seeds, rng);
  std::vector<CellId> cell_of(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) cell_of[v] = vor.part_of(v);
  CellPartition cells(std::move(cell_of));
  double s = 0;
  const std::string err =
      validate_gates(g, cells, build_boundary_gates(g, cells), &s);
  if (!err.empty()) throw InvariantViolation("invalid gates: " + err);
  return {std::move(eg), std::move(cells), s};
}

// E1 (Theorem 4): planar graphs admit tree-restricted shortcuts with
// b = O(log d) and c = O(d log d), on Voronoi and adversarial serpentine
// parts; the treewidth route is the paper's own Lemma 2 (g = 0, no vortices)
// plus Theorem 5.
void e1_case(bench::JsonReport& report, const char* family,
             const EmbeddedGraph& eg, const RootedTree& t,
             const Partition& parts, bool treewidth_route) {
  const int d = tree_diameter(t);
  const double lg_d = std::log2(std::max(2, d));
  std::vector<Method> methods{{"greedy", greedy_certificate()},
                              {"steiner", steiner_certificate()}};
  if (treewidth_route)
    methods.push_back({"treewidth-route",
                       treewidth_certificate(
                           surface_bfs_decomposition(eg, t.root()))});
  for (const Method& m : methods)
    print(build_row(report, "E1", family, eg.graph(), t, parts, m.name, m.cert)
              .set("ref_block", lg_d).set("ref_congestion", d * lg_d));
}

void e1_planar(bench::JsonReport& report) {
  bench::header("E1: planar shortcuts (Theorem 4 / [GH16] targets)");
  for (int s : {16, 32, 48, 64}) {
    EmbeddedGraph eg = gen::grid(s, s);
    const Graph& g = eg.graph();
    RootedTree t = center_tree(g);
    Rng rng(11);
    e1_case(report, "grid/voronoi", eg, t,
            voronoi_partition(g, sqrt_seeds(g.num_vertices()), rng), s <= 24);
    e1_case(report, "grid/serpentine", eg, t,
            grid_serpentines(s, s, std::max(2, s / 8)), false);
  }
  for (int n : {1000, 4000, 16000}) {
    Rng rng(n);
    EmbeddedGraph eg = gen::random_maximal_planar(n, rng);
    RootedTree t = center_tree(eg.graph());
    e1_case(report, "maxplanar/voronoi", eg, t,
            voronoi_partition(eg.graph(), sqrt_seeds(n), rng), false);
  }
}

// E2 (Theorem 5): treewidth-k graphs admit shortcuts with b = O(k) and
// c = O(k log n), on random k-trees with their recorded decompositions.
void e2_treewidth(bench::JsonReport& report) {
  bench::header("E2: treewidth shortcuts (Theorem 5 / [HIZ16b] targets)");
  for (int k : {1, 2, 3, 4, 6, 8}) {
    for (int n : {1000, 4000, 16000}) {
      Rng rng(static_cast<unsigned>(k * 1000 + n));
      gen::KTreeResult kt = gen::random_ktree(n, k, rng);
      RootedTree t = center_tree(kt.graph);
      Partition parts = voronoi_partition(kt.graph, sqrt_seeds(n), rng);
      const StructuralCertificate cert =
          treewidth_certificate(kt.decomposition);
      const ShortcutMetrics m = build(kt.graph, t, parts, cert);
      print(row(report, "E2").set("k", k).set("n", n)
                .set("builder", builder_name_for(cert)).set_metrics(m)
                .set("ref_block", k + 1)
                .set("ref_congestion",
                     (k + 1) * std::log2(static_cast<double>(n))));
    }
  }
}

// E3 (Theorem 7): clique-sums preserve shortcut quality,
// b_G <= 2k + O(b_F) and c_G <= O(k log^2 n) + c_F, for k-clique-sums of
// triangulated 8x8 grid bags against one bag's own greedy shortcut (b_F, c_F).
void e3_cliquesum(bench::JsonReport& report) {
  bench::header("E3: clique-sum composition (Theorem 7 targets)");
  const int k = 2;
  const Graph bag = gen::triangulated_grid(8, 8).graph();
  Rng bag_rng(5);
  const ShortcutMetrics base =
      build(bag, center_tree(bag), voronoi_partition(bag, 6, bag_rng),
            greedy_certificate());
  for (int bags_count : {4, 16, 64, 256}) {
    Rng rng(static_cast<unsigned>(bags_count));
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < bags_count; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, k)});
    gen::CliqueSumResult r = gen::compose_clique_sum(inputs, k, 0.2, rng);
    const VertexId n = r.graph.num_vertices();
    RootedTree t = center_tree(r.graph);
    Partition parts = voronoi_partition(r.graph, sqrt_seeds(n), rng);
    const StructuralCertificate cert = cliquesum_certificate(r.decomposition);
    const ShortcutMetrics m = build(r.graph, t, parts, cert);
    const double lg = std::log2(static_cast<double>(n));
    print(row(report, "E3").set("bags", bags_count).set("n", n)
              .set("builder", builder_name_for(cert)).set_metrics(m)
              .set("ref_block", 2 * k + 4 * base.block)
              .set("ref_congestion", k * lg * lg + base.congestion));
  }
}

// E4 (Lemma 1 vs Theorem 7, Figure 4): the unfolded construction pays
// congestion ~ k * depth(DT); heavy-light folding compresses the
// decomposition tree to depth O(log^2 B). Chain-shaped decompositions make
// the contrast extremal.
void e4_fold_ablation(bench::JsonReport& report) {
  bench::header("E4: folding ablation (Lemma 1 depth term vs folded)");
  for (int chain : {64, 256, 1024}) {
    // Path graph with its natural chain decomposition {v, v+1}.
    Graph g = gen::path(chain + 1);
    std::vector<std::vector<VertexId>> bags;
    std::vector<BagId> parent;
    for (VertexId v = 0; v < chain; ++v) {
      bags.push_back({v, v + 1});
      parent.push_back(v == 0 ? kInvalidBag : v - 1);
    }
    CliqueSumDecomposition csd = clique_sum_from_tree_decomposition(
        TreeDecomposition(bags, parent), g);
    FoldedDecomposition fd = fold_decomposition(csd);

    RootedTree t = center_tree(g);
    Rng rng(3);
    Partition parts = voronoi_partition(g, 8, rng);
    CliqueSumCertificate cert{
        .decomposition = csd, .fold = false, .bag_apices = {}};
    const ShortcutMetrics mu = build(g, t, parts, cert);
    cert.fold = true;
    const ShortcutMetrics mf = build(g, t, parts, cert);
    const double lg = std::log2(static_cast<double>(chain));
    print(row(report, "E4").set("bags", chain).set("depth", csd.depth())
              .set("folded_depth", fd.depth)
              .set("congestion_unfolded", mu.congestion)
              .set("congestion_folded", mf.congestion)
              .set("quality_unfolded", mu.quality)
              .set("quality_folded", mf.quality)
              .set("ref_folded_depth", lg * lg));
  }
}

// E5 (Lemmas 2-3): a genus-g graph of BFS height h with l vortices of depth
// k has treewidth O((g+1) k l h); measured width of the constructed
// decompositions (surface BFS + dual tree + vortex augmentation).
void e5_vortex_treewidth(bench::JsonReport& report) {
  bench::header("E5: Genus+Vortex treewidth (Lemmas 2-3 targets)");
  for (int genus : {0, 1, 2}) {
    for (int s : {8, 12, 16}) {
      for (int l : {0, 1, 2}) {
        for (int depth : {1, 2, 3}) {
          if (l == 0 && depth > 1) continue;  // duplicate row
          Rng rng(static_cast<unsigned>(genus * 100 + s * 10 + l + depth));
          VortexInstance inst = surface_with_vortices(s, genus, l, depth, rng);
          const int height = bfs(inst.base.graph(), 0).max_distance();
          print(row(report, "E5").set("genus", genus)
                    .set("vortex_depth", depth).set("vortices", l).set("s", s)
                    .set("n", inst.graph.num_vertices()).set("height", height)
                    .set("width", inst.decomposition.width())
                    .set("ref_width",
                         (genus + 1) * depth * std::max(1, l) * height));
        }
      }
    }
  }
}

// E6 (Theorem 9): genus-g + vortex graphs admit shortcuts with
// b = O((g+1)klD) and c = O((g+1)klD log n) via the treewidth route,
// against the structure-oblivious greedy.
void e6_genus_vortex(bench::JsonReport& report) {
  bench::header("E6: Genus+Vortex shortcuts (Theorem 9 targets)");
  for (int genus : {0, 1, 2}) {
    for (int s : {10, 14}) {
      Rng rng(static_cast<unsigned>(genus * 31 + s));
      VortexInstance inst = surface_with_vortices(s, genus, 1, 2, rng);
      RootedTree t = center_tree(inst.graph);
      Partition parts = voronoi_partition(inst.graph, 10, rng);
      const std::string family =
          "genus=" + std::to_string(genus) + " s=" + std::to_string(s);
      for (const Method& m :
           {Method{"treewidth-route",
                   treewidth_certificate(std::move(inst.decomposition))},
            Method{"greedy", greedy_certificate()}})
        print(build_row(report, "E6", family, inst.graph, t, parts, m.name,
                        m.cert));
    }
  }
}

// E7 (Lemma 7): planar cell partitions of diameter d admit s-combinatorial
// gates with s = O(d) (paper constant 36d).
void e7_gates(bench::JsonReport& report) {
  bench::header("E7: combinatorial gates on planar cells (Lemma 7 target)");
  for (int n : {1000, 4000, 16000}) {
    for (int seeds : {8, 32, 128}) {
      Rng rng(static_cast<unsigned>(n + seeds));
      GatedCells gc = gated_voronoi_cells(n, seeds, rng);
      int d = 0;
      for (CellId c = 0; c < gc.cells.num_cells(); ++c)
        d = std::max(d, diameter_exact(induced_subgraph(
                            gc.embedded.graph(), gc.cells.members(c)).graph));
      print(row(report, "E7").set("n", n).set("cells", gc.cells.num_cells())
                .set("max_cell_diameter", d).set("gate_s", gc.gate_s)
                .set("ref_gate_s", 36 * std::max(1, d)));
    }
  }
}

// E8 (Lemmas 4-6): cell assignability — every part misses at most 2 of the
// cells it intersects, and no cell serves more than beta <= 2s parts.
// Planar cells + adversarial parts.
void e8_cell_assignment(bench::JsonReport& report) {
  bench::header("E8: cell assignment (Lemmas 4-6 targets)");
  for (int n : {2000, 8000}) {
    for (int cell_seeds : {16, 64}) {
      for (int part_seeds : {8, 32, 128}) {
        Rng rng(static_cast<unsigned>(n + cell_seeds * 7 + part_seeds));
        GatedCells gc = gated_voronoi_cells(n, cell_seeds, rng);
        Partition parts =
            voronoi_partition(gc.embedded.graph(), part_seeds, rng);
        CellAssignment a = assign_cells(
            cell_intersections(gc.cells, parts.all_members()),
            gc.cells.num_cells());
        std::size_t worst_missing = 0;
        int violations = 0;
        for (const auto& miss : a.missing_cells_of_part) {
          worst_missing = std::max(worst_missing, miss.size());
          if (miss.size() > 2) ++violations;
        }
        print(row(report, "E8").set("n", n).set("cells", gc.cells.num_cells())
                  .set("parts", parts.num_parts()).set("beta", a.beta)
                  .set("gate_s", gc.gate_s).set("violations", violations)
                  .set("max_missing", worst_missing)
                  .set("ref_beta", 2 * gc.gate_s));
      }
    }
  }
}

// E9 (Lemma 9, Theorem 8): apex graphs — the diameter collapses (wheel:
// Theta(1)) while parts stay long. Apex-aware shortcuts under each inner
// (within-cell) oracle of Lemma 9, against the structure-oblivious greedy.
void e9_case(bench::JsonReport& report, const std::string& family,
             const Graph& g, const std::vector<VertexId>& apices,
             const Partition& parts) {
  RootedTree t = center_tree(g);
  for (const Method& m :
       {Method{"apex+greedy (L9)",
               apex_certificate(apices, OracleKind::kGreedy)},
        Method{"apex+steiner", apex_certificate(apices, OracleKind::kSteiner)},
        Method{"apex+trivial", apex_certificate(apices, OracleKind::kTrivial)},
        Method{"oblivious greedy", greedy_certificate()}})
    print(build_row(report, "E9", family, g, t, parts, m.name, m.cert));
}

void e9_apex(bench::JsonReport& report) {
  bench::header("E9: apex graphs (Lemma 9 / Theorem 8 targets)");
  for (int n : {1002, 4002, 16002})
    e9_case(report, "wheel/8 sectors", gen::wheel(n), {0},
            ring_sectors(n, 1, n - 1, 8));
  for (int s : {24, 48}) {
    gen::ApexResult ar = gen::add_universal_apex(gen::grid(s, s).graph());
    Partition serp = grid_serpentines(s, s, std::max(2, s / 8));
    // The apices join no part.
    std::vector<PartId> part_of(ar.graph.num_vertices(), kNoPart);
    for (VertexId v = 0; v < s * s; ++v) part_of[v] = serp.part_of(v);
    e9_case(report, "grid+apex/serpent", ar.graph, ar.apices,
            Partition(std::move(part_of)));
  }
  for (int q : {1, 2, 3}) {
    Rng rng(static_cast<unsigned>(q));
    gen::AlmostEmbeddable ae = gen::random_almost_embeddable(
        {.apices = q, .genus = 1, .vortex_depth = 2, .num_vortices = 1,
         .rows = 14, .cols = 14, .apex_attach_prob = 0.5},
        rng);
    Partition parts = voronoi_partition(ae.graph, 12, rng);
    e9_case(report, "almost-emb q=" + std::to_string(q), ae.graph, ae.apices,
            parts);
  }
}

// E10 (Theorem 6, main theorem): random L_k members (clique-sums of
// k-almost-embeddable graphs) admit shortcuts with b = O(d) and
// c = O(d log n + log^2 n) via the full pipeline (Theorem 7 composition +
// Theorem 8 apex-aware local oracles), against the oblivious greedy.
void e10_excluded_minor(bench::JsonReport& report) {
  bench::header("E10: excluded-minor pipeline (Theorem 6 targets)");
  for (int bags : {4, 8, 16}) {
    Rng rng(static_cast<unsigned>(bags * 17));
    gen::LkSample s = gen::random_lk_graph(
        bags,
        {.apices = 1, .genus = 1, .vortex_depth = 2, .num_vortices = 1,
         .rows = 10, .cols = 10},
        2, 0.15, rng);
    const VertexId n = s.graph.num_vertices();
    RootedTree t = center_tree(s.graph);
    Partition parts = voronoi_partition(s.graph, sqrt_seeds(n), rng);
    CliqueSumCertificate pipeline{.decomposition = s.decomposition,
                                  .local_oracle = OracleKind::kGreedy,
                                  .apex_aware = true,
                                  .bag_apices = s.global_apices};
    const int d = tree_diameter(t);
    const double lg = std::log2(static_cast<double>(n));
    const std::string family = "L_2 sample/" + std::to_string(bags) + " bags";
    for (const Method& m : {Method{"pipeline (Thm 6)", std::move(pipeline)},
                            Method{"oblivious greedy", greedy_certificate()}})
      print(build_row(report, "E10", family, s.graph, t, parts, m.name, m.cert)
                .set("ref_block", d).set("ref_congestion", d * lg + lg * lg));
  }
}

// E14 ([HIZ16a] substitution check): the measured round cost of the fully
// distributed construction and the quality of what it builds, against the
// centralized greedy on the same instance — what the MST benches' "charged
// as one aggregation" construction stands for.
void e14_case(bench::JsonReport& report, const char* family, const Graph& g,
              const RootedTree& t, const Partition& parts) {
  for (int cap : {2, 8}) {
    congest::Simulator sim(g);
    congest::DistributedShortcutResult dist =
        congest::distributed_capped_greedy(sim, t, parts, cap);
    const ShortcutMetrics md = measure_shortcut(g, t, parts, dist.shortcut);
    const ShortcutMetrics central = build(g, t, parts, greedy_certificate());
    print(row(report, "E14").set("family", family).set("n", g.num_vertices())
              .set("cap", cap).set("construction_rounds", dist.rounds)
              .set("messages", sim.messages_sent()).set_metrics(md)
              .set("central_quality", central.quality));
  }
}

void e14_distributed_construction(bench::JsonReport& report) {
  bench::header(
      "E14: distributed construction cost vs centralized ([HIZ16a] check)");
  for (int n : {1002, 4002, 16002}) {
    Graph g = gen::wheel(n);
    e14_case(report, "wheel", g, RootedTree::from_bfs(bfs(g, 0), 0),
             ring_sectors(n, 1, n - 1, 8));
  }
  for (int s : {24, 48}) {
    Graph g = gen::grid(s, s).graph();
    e14_case(report, "grid/serpentine", g, center_tree(g),
             grid_serpentines(s, s, std::max(2, s / 8)));
  }
  Rng rng(4);
  Graph g = gen::random_maximal_planar(4000, rng).graph();
  e14_case(report, "maxplanar", g, center_tree(g),
           voronoi_partition(g, 64, rng));
}

}  // namespace

int main() {
  bench::JsonReport report("shortcuts");
  e1_planar(report);
  e2_treewidth(report);
  e3_cliquesum(report);
  e4_fold_ablation(report);
  e5_vortex_treewidth(report);
  e6_genus_vortex(report);
  e7_gates(report);
  e8_cell_assignment(report);
  e9_apex(report);
  e10_excluded_minor(report);
  e14_distributed_construction(report);
  return report.write() ? 0 : 1;
}
