// congest::SolverCore — the immutable, shareable half of a solver session
// (DESIGN.md §10 "Serving architecture").
//
// The paper's economy is "pay for structure once, answer many queries
// cheaply": the expensive objects are the network, the structural
// certificate, the rooted spanning tree, and the shortcuts built from them —
// none of which a query mutates. SolverCore owns exactly that expensive,
// read-only state and nothing else:
//
//   graph + certificate     fixed at construction, never reassigned
//   rooted tree             built once (thread-safe, std::call_once), then const
//   shortcut cache          read-mostly: lookups take a shared lock, misses
//                           build OUTSIDE any lock and insert once, LRU
//                           accounting is a single atomic use-stamp per hit
//
// Because nothing observable mutates, one SolverCore can be shared by any
// number of threads: each concurrent request drives its own cheap
// SolveHandle (solve_handle.hpp) over the same core, and serve::QueryServer
// (src/serve/) fans batches of requests across a WorkerPool this way. The
// legacy congest::Session is now a thin facade over one core + one handle.
//
// Cache concurrency discipline (the DESIGN.md §10 contract):
//   * lookup: shared lock; on hit, stamp the entry from a global atomic use
//     clock (a total order over hits — "epoch-batched" LRU refresh without
//     an exclusive lock on the hot path) and copy the shared_ptr out.
//   * miss: release the lock, build via the engine, then take the exclusive
//     lock once to insert; a racing builder of the same partition keeps the
//     first-inserted entry (results are deterministic, so both builds are
//     bit-identical) and no duplicate is stored.
//   * eviction: under the exclusive lock, evict the entry with the SMALLEST
//     use stamp — exact LRU by the global hit order, never corrupted or
//     approximated by concurrency.
// Counters (hits/misses) of the core are atomics and count every acquire;
// per-REQUEST counters live in the SolveHandle so RunReports stay
// bit-identical across worker widths.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/certificate.hpp"
#include "core/ldd.hpp"
#include "core/shortcut_engine.hpp"
#include "graph/delta.hpp"

namespace mns::io {
struct Snapshot;         // io/snapshot.hpp
struct CachedShortcut;   // io/snapshot.hpp
}  // namespace mns::io

namespace mns::congest {

/// What one structural update() did to the cached state (DESIGN.md §12).
/// The id maps let callers carry per-edge side data (weights) and remembered
/// vertex ids across the update; both are empty for weight-only batches
/// (which change no ids at all).
struct UpdateStats {
  std::size_t entries_kept = 0;         ///< cache entries that survived live
  std::size_t entries_invalidated = 0;  ///< entries dropped as dirty
  std::size_t subpaths_rebuilt = 0;     ///< re-hung rooted-tree subpaths
  bool structural = false;              ///< false: weight-only, nothing moved
  std::vector<VertexId> vertex_map;     ///< old id -> new id (structural only)
  std::vector<EdgeId> edge_map;         ///< old id -> new id (structural only)
};

/// Construction-time knobs of a SolverCore. SessionConfig extends them with
/// the per-request execution policy.
struct CoreConfig {
  /// Roots the core's spanning tree (built ONCE, on first use, reused by
  /// every shortcut construction); default center_tree_factory().
  TreeFactory tree;
  /// Max cached shortcuts before LRU eviction.
  std::size_t cache_capacity = 64;
  /// Knobs for the core's low-diameter decomposition (built ONCE, on first
  /// use via ldd(); weight-independent, so it survives weight updates).
  LddOptions ldd;
};

class SolverCore {
 public:
  /// Takes ownership of the network. The certificate is the core's
  /// structural knowledge; every shortcut dispatches through it.
  explicit SolverCore(Graph g, StructuralCertificate certificate,
                      CoreConfig config = {});
  /// Shares an existing network (used by Session::set_certificate, which
  /// swaps structural knowledge by building a NEW core over the SAME graph
  /// so simulators keep their references).
  SolverCore(std::shared_ptr<const Graph> g, StructuralCertificate certificate,
             CoreConfig config = {});

  /// Rebuilds a core from a snapshot (DESIGN.md §8): installs the
  /// snapshotted tree (config.tree only applies if the snapshot carries
  /// none) and re-keys every cached shortcut under this core's partition
  /// fingerprints, MRU order preserved — the first solve over a snapshotted
  /// partition is a cache HIT. Throws io::SnapshotError on invalid data,
  /// naming the vertex if the tree fails the check tree() runs.
  [[nodiscard]] static std::shared_ptr<const SolverCore> restore(
      io::Snapshot&& snapshot, CoreConfig config = {});

  /// Incremental update (DESIGN.md §12): applies a STRUCTURAL batch and
  /// returns the successor core over the post-update graph, doing the
  /// minimum work — the spanning tree (if already built) is patched by
  /// re-hanging only broken subpaths, the certificate is remapped, and
  /// every cache entry whose partition avoids the touched vertices and
  /// whose shortcut lost no edge MIGRATES live (ids remapped, LRU order
  /// preserved) so it stays a hit with zero construction charge. Dirty
  /// entries are dropped; nothing else is flushed. Weight-only batches must
  /// not come here (they need no new core — see Session::update). Call only
  /// while no handle is mid-solve. Throws UpdateError on batches the
  /// structures cannot absorb.
  [[nodiscard]] std::shared_ptr<const SolverCore> update(
      const UpdateBatch& batch, UpdateStats& stats) const;

  /// Cumulative churn telemetry (persisted in snapshot v2).
  [[nodiscard]] UpdateHistory history() const noexcept;
  /// Records a weight-only update (no structural work, nothing invalidated).
  void note_weight_update() const noexcept {
    weight_updates_.fetch_add(1, std::memory_order_relaxed);
  }

  SolverCore(const SolverCore&) = delete;
  SolverCore& operator=(const SolverCore&) = delete;

  // -- the immutable state (const + noexcept: safe from any thread) --------
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }
  [[nodiscard]] const std::shared_ptr<const Graph>& graph_ptr() const noexcept {
    return g_;
  }
  [[nodiscard]] const StructuralCertificate& certificate() const noexcept {
    return cert_;
  }
  /// The construction knobs this core runs with, defaults filled in. A
  /// successor built from them (update(), Session::set_certificate) keeps
  /// every knob, the LDD options included.
  [[nodiscard]] const CoreConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ShortcutEngine& engine() const noexcept {
    return ShortcutEngine::global();
  }
  /// The core spanning tree, built on first use (std::call_once — safe to
  /// race) and immutable afterwards. Throws InvariantViolation naming the
  /// vertex if the factory's tree does not span the graph or a parent edge
  /// does not join a vertex to its parent; a failed build is not retried,
  /// every later call rethrows its error.
  [[nodiscard]] const RootedTree& tree() const;
  /// The core's low-diameter decomposition (core/ldd.hpp), built on first
  /// use (std::call_once) and immutable afterwards. Weight-independent: one
  /// decomposition per core serves every workload that asks for
  /// PartitionSource::kLdd, so its shortcut is ONE cache entry shared by all
  /// of them.
  [[nodiscard]] const LddDecomposition& ldd() const;

  // -- the read-mostly shortcut acquisition path ---------------------------

  /// What acquire() hands back: the shortcut with its charging status
  /// (SourcedShortcut semantics, shortcut_source.hpp) plus whether the cache
  /// served it — callers (SolveHandles) count hit/miss per request.
  struct Acquired {
    std::shared_ptr<const Shortcut> shortcut;
    bool fresh = true;  ///< freshly constructed: the caller pays the charge
    bool hit = false;   ///< served from cache
    std::size_t evictions = 0;  ///< entries this acquire's insert evicted
  };
  /// use_cache == false bypasses the cache entirely (every build is a miss,
  /// nothing is inserted) — the benches' cold baseline.
  [[nodiscard]] Acquired acquire(const Partition& parts, bool use_cache) const;

  /// Builds, validates, AND measures the certificate's shortcut for `parts`
  /// (quality metrics for analysis/benches); the built shortcut is inserted
  /// into the cache (or its resident entry refreshed) WITHOUT touching the
  /// hit/miss counters — analysis is not query traffic.
  [[nodiscard]] BuildResult analyze(const Partition& parts) const;

  // -- cache introspection (stats are atomics: const + noexcept) -----------
  [[nodiscard]] std::size_t cache_size() const noexcept;
  /// Acquires served from cache, core lifetime.
  [[nodiscard]] long long cache_hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Acquires that built (cached or bypass).
  [[nodiscard]] long long cache_misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Entries LRU-evicted under capacity pressure.
  [[nodiscard]] long long cache_evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }

  // -- snapshot support ----------------------------------------------------
  /// Cached shortcuts, most-recently-used first (what Session::save writes).
  [[nodiscard]] std::vector<io::CachedShortcut> export_cache() const;
  /// Inserts a restored shortcut (counter-neutral, evicts per capacity).
  /// Call in LRU-to-MRU order so use stamps reproduce the snapshot order.
  void seed_cache(std::vector<PartId> part_of,
                  std::shared_ptr<const Shortcut> shortcut) const;

  /// The cache key: FNV-1a over num_parts then every part id, in vertex
  /// order — sensitive to any relabeling or permutation of part_of. Public
  /// and static so tools (mnsctl inspect) and tests can pin golden values.
  [[nodiscard]] static std::uint64_t partition_fingerprint(
      PartId num_parts, std::span<const PartId> part_of);

 private:
  struct CacheEntry {
    std::uint64_t key = 0;  ///< partition_fingerprint(num_parts, part_of)
    std::vector<PartId> part_of;  ///< exact guard against hash collisions
    std::shared_ptr<const Shortcut> shortcut;
    /// Global-use-clock stamp of the last hit/insert; eviction takes the
    /// minimum. Atomic so hits can stamp under the SHARED lock.
    std::atomic<std::uint64_t> last_use;
    CacheEntry(std::uint64_t k, std::vector<PartId> p,
               std::shared_ptr<const Shortcut> s, std::uint64_t use)
        : key(k),
          part_of(std::move(p)),
          shortcut(std::move(s)),
          last_use(use) {}
  };

  [[nodiscard]] std::uint64_t next_use() const {
    return use_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Dedupe-probe + evict + insert; cache_mutex_ must be held exclusively.
  /// Returns the number of entries evicted to make room.
  std::size_t insert_locked(std::uint64_t key, std::vector<PartId> part_of,
                            std::shared_ptr<const Shortcut> shortcut) const;

  std::shared_ptr<const Graph> g_;
  StructuralCertificate cert_;
  CoreConfig config_;

  mutable std::once_flag tree_once_;
  mutable std::optional<RootedTree> tree_;
  mutable std::exception_ptr tree_error_;  ///< the factory's failure, if any
  mutable std::once_flag ldd_once_;
  mutable std::optional<LddDecomposition> ldd_;

  mutable std::shared_mutex cache_mutex_;
  mutable std::list<CacheEntry> entries_;
  mutable std::map<std::uint64_t, std::vector<std::list<CacheEntry>::iterator>>
      index_;
  mutable std::atomic<std::uint64_t> use_clock_{0};
  mutable std::atomic<long long> hits_{0};
  mutable std::atomic<long long> misses_{0};
  mutable std::atomic<long long> evictions_{0};

  /// Structural-update telemetry, written before the core is shared
  /// (update()/restore() on the successor core); weight-only updates bump
  /// the atomic counter on the live core.
  UpdateHistory history_{};
  mutable std::atomic<std::uint64_t> weight_updates_{0};
};

}  // namespace mns::congest
