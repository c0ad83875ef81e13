#include "congest/solver_core.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/incremental.hpp"
#include "io/fnv.hpp"
#include "io/snapshot.hpp"

namespace mns::congest {

namespace {

/// Fills in the documented defaults, so config() reports what the core runs
/// with and a successor built from it behaves identically.
CoreConfig with_defaults(CoreConfig config) {
  if (!config.tree) config.tree = center_tree_factory();
  config.cache_capacity = std::max<std::size_t>(1, config.cache_capacity);
  return config;
}

/// The one tree check, run on every tree the core installs (the factory's,
/// a restored one, update()'s patched one): the round engine sends along
/// parent_edge() unchecked, so the tree must span `g` and bind every
/// non-root vertex to an edge joining it to its parent. Returns what is
/// wrong, naming the vertex, or "" if nothing is.
std::string tree_defect(const Graph& g, const RootedTree& t) {
  if (t.num_vertices() != g.num_vertices())
    return "tree on " + std::to_string(t.num_vertices()) +
           " vertices for a graph on " + std::to_string(g.num_vertices());
  for (VertexId v = 0; v < t.num_vertices(); ++v) {
    if (v == t.root()) continue;
    const EdgeId e = t.parent_edge(v);
    const VertexId p = t.parent(v);
    const bool joins =
        e >= 0 && e < g.num_edges() &&
        ((g.edge(e).u == v && g.edge(e).v == p) ||
         (g.edge(e).v == v && g.edge(e).u == p));
    if (!joins)
      return "parent edge of vertex " + std::to_string(v) +
             " does not join it to its parent " + std::to_string(p);
  }
  return "";
}

}  // namespace

SolverCore::SolverCore(Graph g, StructuralCertificate certificate,
                       CoreConfig config)
    : SolverCore(std::make_shared<const Graph>(std::move(g)),
                 std::move(certificate), std::move(config)) {}

SolverCore::SolverCore(std::shared_ptr<const Graph> g,
                       StructuralCertificate certificate, CoreConfig config)
    : g_(std::move(g)),
      cert_(std::move(certificate)),
      config_(with_defaults(std::move(config))) {
  require(g_ != nullptr, "SolverCore: null graph");
}

const RootedTree& SolverCore::tree() const {
  // A failure is kept and rethrown, never thrown out of call_once: under
  // ThreadSanitizer's pthread_once a flag whose callable threw is never
  // released, so the next call would block forever.
  std::call_once(tree_once_, [&] {
    try {
      RootedTree t = config_.tree(*g_);
      if (const std::string defect = tree_defect(*g_, t); !defect.empty())
        throw InvariantViolation("SolverCore: tree factory's " + defect);
      tree_.emplace(std::move(t));
    } catch (...) {
      tree_error_ = std::current_exception();
    }
  });
  if (tree_error_) std::rethrow_exception(tree_error_);
  return *tree_;
}

const LddDecomposition& SolverCore::ldd() const {
  std::call_once(ldd_once_,
                 [&] { ldd_.emplace(ldd_decompose(*g_, config_.ldd)); });
  return *ldd_;
}

std::uint64_t SolverCore::partition_fingerprint(
    PartId num_parts, std::span<const PartId> part_of) {
  io::Fnv64 h;
  h.mix_u64(static_cast<std::uint64_t>(num_parts));
  for (PartId p : part_of)
    h.mix_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(p)));
  return h.value();
}

std::size_t SolverCore::insert_locked(
    std::uint64_t key, std::vector<PartId> part_of,
    std::shared_ptr<const Shortcut> shortcut) const {
  // Insert-once: a racing builder of the same partition refreshes the
  // resident entry instead of storing a duplicate (the builds are
  // deterministic, so the kept shortcut equals the dropped one).
  auto idx = index_.find(key);
  if (idx != index_.end()) {
    for (auto it : idx->second) {
      if (it->part_of.size() == part_of.size() &&
          std::equal(part_of.begin(), part_of.end(), it->part_of.begin())) {
        it->last_use.store(next_use(), std::memory_order_relaxed);
        return 0;
      }
    }
  }
  std::size_t evicted = 0;
  while (entries_.size() >= config_.cache_capacity) {
    // Exact LRU: evict the entry with the smallest use stamp. The stamps
    // come from one atomic clock, so the eviction order is the total hit
    // order even when the hits raced on the shared-locked path.
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (it->last_use.load(std::memory_order_relaxed) <
          victim->last_use.load(std::memory_order_relaxed))
        victim = it;
    auto vidx = index_.find(victim->key);
    if (vidx != index_.end()) {
      auto& slots = vidx->second;
      slots.erase(std::remove(slots.begin(), slots.end(), victim),
                  slots.end());
      if (slots.empty()) index_.erase(vidx);
    }
    entries_.erase(victim);
    ++evicted;
  }
  entries_.emplace_front(key, std::move(part_of), std::move(shortcut),
                         next_use());
  index_[key].push_back(entries_.begin());
  evictions_.fetch_add(static_cast<long long>(evicted),
                       std::memory_order_relaxed);
  return evicted;
}

SolverCore::Acquired SolverCore::acquire(const Partition& parts,
                                         bool use_cache) const {
  if (use_cache) {
    const std::uint64_t key =
        partition_fingerprint(parts.num_parts(), parts.part_of_all());
    {
      std::shared_lock<std::shared_mutex> lock(cache_mutex_);
      auto idx = index_.find(key);
      if (idx != index_.end()) {
        auto span = parts.part_of_all();
        for (auto it : idx->second) {
          if (it->part_of.size() == span.size() &&
              std::equal(span.begin(), span.end(), it->part_of.begin())) {
            it->last_use.store(next_use(), std::memory_order_relaxed);
            hits_.fetch_add(1, std::memory_order_relaxed);
            return Acquired{it->shortcut, /*fresh=*/false, /*hit=*/true};
          }
        }
      }
    }
    // Miss: build OUTSIDE any lock (constructions are the expensive part and
    // must not serialize concurrent requests), then insert once.
    misses_.fetch_add(1, std::memory_order_relaxed);
    auto built = std::make_shared<const Shortcut>(
        engine().build_shortcut(*g_, tree(), parts, cert_));
    auto span = parts.part_of_all();
    std::size_t evicted = 0;
    {
      std::unique_lock<std::shared_mutex> lock(cache_mutex_);
      evicted = insert_locked(
          key, std::vector<PartId>(span.begin(), span.end()), built);
    }
    return Acquired{std::move(built), /*fresh=*/true, /*hit=*/false, evicted};
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto built = std::make_shared<const Shortcut>(
      engine().build_shortcut(*g_, tree(), parts, cert_));
  return Acquired{std::move(built), /*fresh=*/true, /*hit=*/false};
}

BuildResult SolverCore::analyze(const Partition& parts) const {
  BuildResult out = engine().build(*g_, tree(), parts, cert_);
  // Seed the cache so a following solve over the same partition hits
  // (counter-neutral: analysis is not query traffic).
  auto span = parts.part_of_all();
  const std::uint64_t key = partition_fingerprint(parts.num_parts(), span);
  std::unique_lock<std::shared_mutex> lock(cache_mutex_);
  (void)insert_locked(key, std::vector<PartId>(span.begin(), span.end()),
                      std::make_shared<const Shortcut>(out.shortcut));
  return out;
}

UpdateHistory SolverCore::history() const noexcept {
  UpdateHistory h = history_;
  h.updates_applied += weight_updates_.load(std::memory_order_relaxed);
  return h;
}

std::size_t SolverCore::cache_size() const noexcept {
  std::shared_lock<std::shared_mutex> lock(cache_mutex_);
  return entries_.size();
}

std::vector<io::CachedShortcut> SolverCore::export_cache() const {
  std::shared_lock<std::shared_mutex> lock(cache_mutex_);
  std::vector<const CacheEntry*> order;
  order.reserve(entries_.size());
  for (const CacheEntry& e : entries_) order.push_back(&e);
  // MRU first == descending use stamp (stamps are unique: one atomic clock).
  std::sort(order.begin(), order.end(),
            [](const CacheEntry* a, const CacheEntry* b) {
              return a->last_use.load(std::memory_order_relaxed) >
                     b->last_use.load(std::memory_order_relaxed);
            });
  std::vector<io::CachedShortcut> out;
  out.reserve(order.size());
  for (const CacheEntry* e : order)
    out.push_back(io::CachedShortcut{e->part_of, *e->shortcut});
  return out;
}

void SolverCore::seed_cache(std::vector<PartId> part_of,
                            std::shared_ptr<const Shortcut> shortcut) const {
  PartId num_parts = 0;
  for (PartId p : part_of)
    if (p >= num_parts) num_parts = static_cast<PartId>(p + 1);
  const std::uint64_t key = partition_fingerprint(num_parts, part_of);
  std::unique_lock<std::shared_mutex> lock(cache_mutex_);
  (void)insert_locked(key, std::move(part_of), std::move(shortcut));
}

std::shared_ptr<const SolverCore> SolverCore::update(const UpdateBatch& batch,
                                                     UpdateStats& stats) const {
  require(batch.structural(),
          "SolverCore::update: weight-only batches need no new core");
  GraphDelta delta = apply_delta(*g_, batch);
  StructuralCertificate cert =
      update_certificate(cert_, *g_, delta.graph, delta, batch);

  // Dirty test works in OLD vertex ids (cached part_of lives there): a
  // removed vertex, or a surviving vertex that is structurally touched.
  const VertexId old_n = g_->num_vertices();
  std::vector<char> touched_old(static_cast<std::size_t>(old_n), 0);
  for (VertexId v = 0; v < old_n; ++v) {
    const VertexId nv = delta.vertex_map[static_cast<std::size_t>(v)];
    touched_old[static_cast<std::size_t>(v)] =
        nv == kInvalidVertex ? char{1}
                             : delta.touched[static_cast<std::size_t>(nv)];
  }

  auto core = std::make_shared<SolverCore>(
      std::make_shared<const Graph>(std::move(delta.graph)), std::move(cert),
      config_);
  const VertexId new_n = core->graph().num_vertices();

  stats.structural = true;
  stats.subpaths_rebuilt = 0;
  // Patch the spanning tree only if this core ever built one; a cold core
  // stays cold (the successor's factory builds fresh on first use).
  if (tree_.has_value()) {
    TreePatch patch = patch_tree(*tree_, core->graph(), delta);
    stats.subpaths_rebuilt = patch.subpaths_rebuilt;
    RootedTree t(patch.root, std::move(patch.parent),
                 std::move(patch.parent_edge));
    if (const std::string defect = tree_defect(core->graph(), t);
        !defect.empty())
      throw InvariantViolation("SolverCore::update: patched " + defect);
    std::call_once(core->tree_once_,
                   [&] { core->tree_.emplace(std::move(t)); });
  }

  // Migrate surviving cache entries, LRU-first so relative recency carries
  // over. An entry is dirty iff its partition contains a touched vertex or
  // its shortcut lost an edge; everything else stays live as-is (remapped
  // ids) — no epoch-wide flush.
  stats.entries_kept = 0;
  stats.entries_invalidated = 0;
  {
    std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    std::vector<const CacheEntry*> order;
    order.reserve(entries_.size());
    for (const CacheEntry& e : entries_) order.push_back(&e);
    std::sort(order.begin(), order.end(),
              [](const CacheEntry* a, const CacheEntry* b) {
                return a->last_use.load(std::memory_order_relaxed) <
                       b->last_use.load(std::memory_order_relaxed);
              });
    for (const CacheEntry* e : order) {
      bool dirty = false;
      for (VertexId v = 0; v < old_n && !dirty; ++v)
        dirty = touched_old[static_cast<std::size_t>(v)] &&
                e->part_of[static_cast<std::size_t>(v)] != kNoPart;
      for (const auto& part_edges : e->shortcut->edges_of_part)
        for (EdgeId pe : part_edges) {
          if (dirty) break;
          dirty = delta.edge_map[static_cast<std::size_t>(pe)] == kInvalidEdge;
        }
      if (dirty) {
        ++stats.entries_invalidated;
        continue;
      }
      std::vector<PartId> part_of(static_cast<std::size_t>(new_n), kNoPart);
      for (VertexId v = 0; v < old_n; ++v) {
        const VertexId nv = delta.vertex_map[static_cast<std::size_t>(v)];
        if (nv != kInvalidVertex)
          part_of[static_cast<std::size_t>(nv)] =
              e->part_of[static_cast<std::size_t>(v)];
      }
      auto shortcut = std::make_shared<Shortcut>();
      shortcut->edges_of_part.reserve(e->shortcut->edges_of_part.size());
      for (const auto& part_edges : e->shortcut->edges_of_part) {
        std::vector<EdgeId> mapped;
        mapped.reserve(part_edges.size());
        for (EdgeId pe : part_edges)
          mapped.push_back(delta.edge_map[static_cast<std::size_t>(pe)]);
        shortcut->edges_of_part.push_back(std::move(mapped));
      }
      core->seed_cache(std::move(part_of),
                       std::shared_ptr<const Shortcut>(std::move(shortcut)));
      ++stats.entries_kept;
    }
  }

  stats.vertex_map = std::move(delta.vertex_map);
  stats.edge_map = std::move(delta.edge_map);

  // Lifetime counters and churn telemetry carry into the successor.
  core->hits_.store(hits_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  core->misses_.store(misses_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  core->evictions_.store(evictions_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  core->history_ = history();
  core->history_.updates_applied += 1;
  core->history_.entries_kept += stats.entries_kept;
  core->history_.entries_invalidated += stats.entries_invalidated;
  core->history_.subpaths_rebuilt += stats.subpaths_rebuilt;
  return core;
}

std::shared_ptr<const SolverCore> SolverCore::restore(io::Snapshot&& snapshot,
                                                      CoreConfig config) {
  auto core = std::make_shared<SolverCore>(std::move(snapshot.graph),
                                           std::move(snapshot.certificate),
                                           std::move(config));
  const VertexId n = core->graph().num_vertices();
  if (snapshot.tree) {
    // A caller-built Snapshot skips decode's checks, so the tree's shape is
    // checked here too.
    io::TreeSnapshot& ts = *snapshot.tree;
    std::optional<RootedTree> t;
    try {
      t.emplace(ts.root, std::move(ts.parent), std::move(ts.parent_edge));
    } catch (const std::invalid_argument& e) {
      throw io::SnapshotError(std::string("snapshot: ") + e.what());
    }
    if (const std::string defect = tree_defect(core->graph(), *t);
        !defect.empty())
      throw io::SnapshotError("snapshot: " + defect);
    std::call_once(core->tree_once_,
                   [&] { core->tree_.emplace(std::move(*t)); });
  }
  // Re-key every cached shortcut under THIS core's partition fingerprints,
  // seeding LRU-first so the snapshot's MRU entry ends up most recent.
  for (auto it = snapshot.shortcuts.rbegin(); it != snapshot.shortcuts.rend();
       ++it) {
    if (it->part_of.size() != static_cast<std::size_t>(n))
      throw io::SnapshotError("snapshot: cached part map size != vertex count");
    for (PartId p : it->part_of) {
      // decode_snapshot validates this too; re-check here so a
      // caller-constructed Snapshot cannot smuggle ids past the cache
      // (p < n also keeps p + 1 clear of signed overflow in seed_cache).
      if (p < kNoPart || p >= n)
        throw io::SnapshotError("snapshot: cached part id out of range");
    }
    core->seed_cache(std::move(it->part_of),
                     std::make_shared<const Shortcut>(std::move(it->shortcut)));
  }
  core->history_ = snapshot.history;
  return core;
}

}  // namespace mns::congest
