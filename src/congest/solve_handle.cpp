#include "congest/solve_handle.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "congest/bfs.hpp"
#include "congest/dominating_set.hpp"
#include "congest/mincut.hpp"
#include "congest/mis.hpp"
#include "congest/mst.hpp"
#include "congest/sssp.hpp"

namespace mns::congest {

namespace {

/// Projects the LDD shortcut onto a workload partition (DESIGN.md §13):
/// H_p = union of the cluster edge sets H_c over every LDD cluster c that
/// intersects p, sorted and deduped. Any H is correctness-safe for part-wise
/// aggregation (the empty source is the flooding baseline), so projection
/// trades per-partition construction for reuse of ONE cached shortcut.
/// Identical partitions short-circuit to the base shortcut itself.
std::shared_ptr<const Shortcut> project_ldd_shortcut(
    std::shared_ptr<const Shortcut> base, const Partition& cells,
    const Partition& parts) {
  const std::span<const PartId> cell_of = cells.part_of_all();
  const std::span<const PartId> part_of = parts.part_of_all();
  if (cells.num_parts() == parts.num_parts() &&
      std::equal(cell_of.begin(), cell_of.end(), part_of.begin(),
                 part_of.end()))
    return base;
  // (target part, cell) incidence pairs, deduped by sort.
  std::vector<std::pair<PartId, PartId>> inc;
  for (std::size_t v = 0; v < part_of.size(); ++v)
    if (part_of[v] != kNoPart) inc.emplace_back(part_of[v], cell_of[v]);
  std::sort(inc.begin(), inc.end());
  inc.erase(std::unique(inc.begin(), inc.end()), inc.end());
  auto out = std::make_shared<Shortcut>();
  out->edges_of_part.resize(static_cast<std::size_t>(parts.num_parts()));
  for (std::size_t i = 0; i < inc.size();) {
    const PartId p = inc[i].first;
    std::vector<EdgeId>& hp = out->edges_of_part[static_cast<std::size_t>(p)];
    for (; i < inc.size() && inc[i].first == p; ++i) {
      const std::vector<EdgeId>& hc =
          base->edges_of_part[static_cast<std::size_t>(inc[i].second)];
      hp.insert(hp.end(), hc.begin(), hc.end());
    }
    std::sort(hp.begin(), hp.end());
    hp.erase(std::unique(hp.begin(), hp.end()), hp.end());
  }
  return out;
}

/// The Aggregate workload: one part-wise min aggregation over q.parts, one
/// phase, charged its own rounds when its shortcut was built fresh.
AggregatePayload aggregate_once(const Aggregate& q,
                                const ShortcutSource& source,
                                PhaseMeter& meter) {
  const Graph& g = meter.sim().graph();
  require(static_cast<VertexId>(q.values.size()) == g.num_vertices(),
          "SolveHandle: aggregate values size mismatch");
  // Checked before the shortcut source sees the partition: a builder
  // would index its per-vertex map by the graph's vertices.
  require(static_cast<VertexId>(q.parts.part_of_all().size()) ==
              g.num_vertices(),
          "SolveHandle: aggregate partition size mismatch");
  meter.open_phase();
  SourcedShortcut s = source(g, q.parts);
  PartwiseAggregator agg(g, q.parts, *s.shortcut);
  AggregationResult res = agg.aggregate_min(meter.sim(), q.values);
  meter.aggregated();
  if (s.fresh) meter.charge(res.rounds);
  return AggregatePayload{std::move(res.min_of_part)};
}

}  // namespace

// -------------------------------------------------------- payload accessors

const MstPayload& RunReport::mst() const {
  const auto* p = std::get_if<MstPayload>(&payload);
  require(p != nullptr, "RunReport: not an MST payload");
  return *p;
}
const MinCutPayload& RunReport::min_cut() const {
  const auto* p = std::get_if<MinCutPayload>(&payload);
  require(p != nullptr, "RunReport: not a min-cut payload");
  return *p;
}
const SsspPayload& RunReport::sssp() const {
  const auto* p = std::get_if<SsspPayload>(&payload);
  require(p != nullptr, "RunReport: not an SSSP payload");
  return *p;
}
const BfsPayload& RunReport::bfs() const {
  const auto* p = std::get_if<BfsPayload>(&payload);
  require(p != nullptr, "RunReport: not a BFS payload");
  return *p;
}
const AggregatePayload& RunReport::aggregate() const {
  const auto* p = std::get_if<AggregatePayload>(&payload);
  require(p != nullptr, "RunReport: not an aggregation payload");
  return *p;
}
const MisPayload& RunReport::mis() const {
  const auto* p = std::get_if<MisPayload>(&payload);
  require(p != nullptr, "RunReport: not a MIS payload");
  return *p;
}
const DomsetPayload& RunReport::domset() const {
  const auto* p = std::get_if<DomsetPayload>(&payload);
  require(p != nullptr, "RunReport: not a dominating-set payload");
  return *p;
}

// ------------------------------------------------------------- solve handle

SolveHandle::SolveHandle(std::shared_ptr<const SolverCore> core,
                         ExecutionPolicy execution)
    : core_((require(core != nullptr, "SolveHandle: null core"),
             std::move(core))),
      default_execution_(execution),
      sim_(core_->graph(), execution) {}

void SolveHandle::rebind(std::shared_ptr<const SolverCore> core) {
  require(core != nullptr, "SolveHandle: null core");
  // The simulator holds a reference into the current graph; a rebind may
  // swap structural knowledge (certificate/tree/cache) but never the
  // network itself.
  require(core->graph_ptr().get() == core_->graph_ptr().get(),
          "SolveHandle: rebind must keep the same graph");
  core_ = std::move(core);
}

ShortcutSource SolveHandle::make_source(const SolveOptions& opt) {
  if (!opt.use_shortcuts) return empty_shortcut_source();
  // Under LDD provenance every request resolves to the SAME cache entry (the
  // core LDD's shortcut), projected locally onto whatever partition the
  // workload aggregates over. Only the underlying construction is ever
  // charged — the projection is local bookkeeping, not communication.
  return [this, use_cache = opt.use_cache,
          ldd = opt.partition == PartitionSource::kLdd](
             const Graph& g, const Partition& parts) {
    require(&g == &core_->graph(),
            "SolveHandle: shortcut requested for foreign graph");
    const Partition& built = ldd ? core_->ldd().parts : parts;
    SolverCore::Acquired a = core_->acquire(built, use_cache);
    if (a.hit)
      ++hits_;
    else
      ++misses_;
    evictions_ += static_cast<long long>(a.evictions);
    if (ldd)
      a.shortcut = project_ldd_shortcut(std::move(a.shortcut), built, parts);
    return SourcedShortcut{std::move(a.shortcut), a.fresh};
  };
}

template <typename Body>
RunReport SolveHandle::run(const char* workload, const SolveOptions& opt,
                           Body&& body) {
  // Apply this solve's execution policy before anything is staged: 0 keeps
  // the handle default, -1 asks for hardware_concurrency, N pins N shards.
  ExecutionPolicy policy = default_execution_;
  if (opt.threads > 0) policy.threads = opt.threads;
  if (opt.threads < 0) policy.threads = 0;  // resolve to hardware width
  if (policy.resolved() != sim_.num_shards()) sim_.set_execution_policy(policy);
  const auto start_clock = std::chrono::steady_clock::now();
  const long long start_rounds = sim_.rounds();
  const long long start_messages = sim_.messages_sent();
  const long long start_hits = hits_;
  const long long start_misses = misses_;
  const long long start_evictions = evictions_;
  RunReport r;
  r.workload = workload;
  r.threads = sim_.num_shards();
  PhaseMeter meter(sim_, r, opt.trace);
  r.payload = body(meter);
  r.rounds = sim_.rounds() - start_rounds;
  r.messages = sim_.messages_sent() - start_messages;
  r.cache_hits = hits_ - start_hits;
  r.cache_misses = misses_ - start_misses;
  r.cache_evictions = evictions_ - start_evictions;
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start_clock)
                  .count();
  return r;
}

RunReport SolveHandle::solve(const Mst& q, const SolveOptions& opt) {
  return run("mst", opt, [&](PhaseMeter& m) {
    return boruvka_mst(q.weights, make_source(opt), m);
  });
}

RunReport SolveHandle::solve(const GhsMst& q, const SolveOptions& opt) {
  // GHS is shortcut-free: nothing to cache or charge.
  return run("mst.ghs", opt, [&](PhaseMeter& m) {
    return controlled_ghs_mst(q.weights, core_->tree(), m);
  });
}

RunReport SolveHandle::solve(const MinCut& q, const SolveOptions& opt) {
  return run("mincut", opt, [&](PhaseMeter& m) {
    return approx_min_cut(q, make_source(opt), m);
  });
}

RunReport SolveHandle::solve(const ExactSssp& q, const SolveOptions& opt) {
  // Bellman-Ford is shortcut-free.
  return run("sssp.exact", opt,
             [&](PhaseMeter& m) { return exact_sssp(q, m); });
}

RunReport SolveHandle::solve(const ApproxSssp& q, const SolveOptions& opt) {
  // LDD provenance pins the cells themselves: one fixed clustering, never
  // repartitioned, so every run over this core is the same cache entry.
  return run("sssp.approx", opt, [&](PhaseMeter& m) {
    return approx_sssp(
        q, make_source(opt), m,
        opt.partition == PartitionSource::kLdd ? &core_->ldd() : nullptr);
  });
}

RunReport SolveHandle::solve(const Bfs& q, const SolveOptions& opt) {
  // Flooding needs no shortcuts.
  return run("bfs", opt,
             [&](PhaseMeter& m) { return distributed_bfs(q, m); });
}

RunReport SolveHandle::solve(const Mis& q, const SolveOptions& opt) {
  return run("mis", opt, [&](PhaseMeter& m) { return luby_mis(q, m); });
}

RunReport SolveHandle::solve(const DominatingSet&, const SolveOptions& opt) {
  // Span greedy has no knobs.
  return run("domset", opt, [&](PhaseMeter& m) {
    return span_greedy_dominating_set(core_->tree(), m);
  });
}

RunReport SolveHandle::solve(const Aggregate& q, const SolveOptions& opt) {
  return run("aggregate", opt, [&](PhaseMeter& m) {
    return aggregate_once(q, make_source(opt), m);
  });
}

// --------------------------------------------------------------- catalogue

namespace {

/// One by-name workload: maps the parameter bundle onto the typed request
/// and runs the typed solve, which names the RunReport.
struct CatalogueRow {
  std::string_view name;
  RunReport (*solve)(SolveHandle&, const WorkloadParams&, const SolveOptions&);
};

/// The only by-name registry, sorted by name for lookup.
constexpr CatalogueRow kCatalogue[] = {
    {"bfs",
     [](SolveHandle& h, const WorkloadParams& p, const SolveOptions& o) {
       return h.solve(Bfs{p.source}, o);
     }},
    {"domset",
     [](SolveHandle& h, const WorkloadParams&, const SolveOptions& o) {
       return h.solve(DominatingSet{}, o);
     }},
    {"mincut",
     [](SolveHandle& h, const WorkloadParams& p, const SolveOptions& o) {
       return h.solve(MinCut{p.weights, p.num_trees, p.two_respecting}, o);
     }},
    {"mis",
     [](SolveHandle& h, const WorkloadParams& p, const SolveOptions& o) {
       return h.solve(Mis{p.seed}, o);
     }},
    {"mst",
     [](SolveHandle& h, const WorkloadParams& p, const SolveOptions& o) {
       return h.solve(Mst{p.weights}, o);
     }},
    {"mst.ghs",
     [](SolveHandle& h, const WorkloadParams& p, const SolveOptions& o) {
       return h.solve(GhsMst{p.weights}, o);
     }},
    {"sssp.approx",
     [](SolveHandle& h, const WorkloadParams& p, const SolveOptions& o) {
       return h.solve(
           ApproxSssp{p.weights, p.source, p.epsilon, p.num_seeds,
                      p.repartition_growth, p.wavefront_seeds},
           o);
     }},
    {"sssp.exact",
     [](SolveHandle& h, const WorkloadParams& p, const SolveOptions& o) {
       return h.solve(ExactSssp{p.weights, p.source}, o);
     }},
};
static_assert(std::ranges::is_sorted(kCatalogue, {}, &CatalogueRow::name));

}  // namespace

RunReport SolveHandle::solve(std::string_view workload,
                             const WorkloadParams& params,
                             const SolveOptions& opt) {
  const CatalogueRow* row = std::ranges::lower_bound(
      kCatalogue, workload, {}, &CatalogueRow::name);
  if (row == std::end(kCatalogue) || row->name != workload)
    throw InvariantViolation("SolveHandle: unknown workload '" +
                             std::string(workload) + "'");
  return row->solve(*this, params, opt);
}

const std::vector<std::string>& builtin_workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const CatalogueRow& row : kCatalogue) out.emplace_back(row.name);
    return out;
  }();
  return names;
}

}  // namespace mns::congest
