// Bump-pointer arena for the per-round data path (DESIGN.md §9 "Memory
// model").
//
// The simulator's round turnover reuses a small set of buffers whose sizes
// reach a steady state after a few rounds (pending sends, packed inboxes,
// frontier, staged shard buffers, vertex-program accumulators). Backing them
// with a bump arena gives two things the general-purpose heap cannot:
//
//   * Zero steady-state allocations. Once every buffer hit its high-water
//     capacity, rounds perform NO allocator calls at all — the arena's
//     Stats::block_requests counter is the test hook that pins this
//     (tests/test_arena_contract.cpp).
//   * Locality. All hot per-round buffers live in a handful of contiguous
//     slabs instead of being scattered across the heap, which is what lets
//     finish_round()'s merge stream at n = 2^20.
//
// Threading contract: an Arena is NOT thread-safe. Every arena is owned by
// exactly one lane — the simulator's merge arena is touched only by the
// calling thread (stage_send never allocates from it), and each staging
// shard / PerShardArena slot owns a private arena touched only by the worker
// driving that shard. This mirrors the engine's determinism contract
// (DESIGN.md §7): shards never share mutable state.
//
// Lifetime: slabs are only released when the arena is destroyed (with its
// owner, e.g. the Simulator). deallocate() reclaims a block only when it is
// the most recent allocation (LIFO top rollback) — enough to recycle
// vector-grow patterns during warm-up; anything else is retained until
// destruction, bounding total reservation at a small constant factor of the
// high-water mark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mns::congest {

class Arena {
 public:
  /// Allocation counters — the steady-state test hook. block_requests is the
  /// number of allocate() calls (vector growths land here); slabs /
  /// bytes_reserved track what was actually requested from the OS heap.
  struct Stats {
    std::size_t block_requests = 0;
    std::size_t slabs = 0;
    std::size_t bytes_reserved = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (power of two). Opens a new
  /// geometrically grown slab when the current one is exhausted; the first
  /// slab is only created on first use, so idle arenas cost nothing.
  void* allocate(std::size_t bytes, std::size_t align) {
    ++stats_.block_requests;
    std::byte* p = align_up(cursor_, align);
    if (p == nullptr || p > end_ ||
        bytes > static_cast<std::size_t>(end_ - p)) {
      new_slab(bytes + align);
      p = align_up(cursor_, align);
    }
    cursor_ = p + bytes;
    return p;
  }

  /// LIFO rollback: reclaims the block only if it is the top of the current
  /// slab (the most recent allocation). Anything else is a no-op — the
  /// memory is recycled at arena destruction.
  void deallocate(void* p, std::size_t bytes) noexcept {
    std::byte* q = static_cast<std::byte*>(p);
    if (q + bytes == cursor_) cursor_ = q;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::size_t kMinSlabBytes = 1 << 16;

  static std::byte* align_up(std::byte* p, std::size_t align) noexcept {
    const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t mask = static_cast<std::uintptr_t>(align) - 1;
    return reinterpret_cast<std::byte*>((a + mask) & ~mask);
  }

  void new_slab(std::size_t at_least) {
    std::size_t size = kMinSlabBytes;
    if (!slabs_.empty()) size = slabs_.back().size * 2;
    if (size < at_least) size = at_least;
    // for_overwrite: arena containers write every byte before reading it,
    // so zero-filling a fresh slab would only cost a memset per slab.
    slabs_.push_back(
        Slab{std::make_unique_for_overwrite<std::byte[]>(size), size});
    ++stats_.slabs;
    stats_.bytes_reserved += size;
    cursor_ = slabs_.back().data.get();
    end_ = cursor_ + size;
  }

  struct Slab {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };
  std::vector<Slab> slabs_;
  std::byte* cursor_ = nullptr;
  std::byte* end_ = nullptr;
  Stats stats_;
};

/// std-conforming allocator over a non-owned Arena. Containers using it must
/// not outlive the arena. Two allocators compare equal iff they share the
/// arena (so moves between containers on the same arena are pointer swaps).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    arena_->deallocate(p, n * sizeof(T));
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <typename U>
  friend bool operator==(const ArenaAllocator& a,
                         const ArenaAllocator<U>& b) noexcept {
    return a.arena() == b.arena();
  }

 private:
  Arena* arena_;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// Per-shard accumulator whose slots each own a PRIVATE arena: worker
/// threads append to disjoint slots, so the (single-threaded) arenas never
/// race, and the accumulators stop allocating once warm — same contract as
/// the simulator's staging shards. Merge with for_each in shard order to
/// keep results bit-identical to sequential execution (DESIGN.md §7).
template <typename T>
class PerShardArenaVec {
 public:
  explicit PerShardArenaVec(int num_shards)
      : num_(num_shards),
        slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(num_shards))) {
  }

  [[nodiscard]] int num_shards() const noexcept { return num_; }

  [[nodiscard]] ArenaVector<T>& operator[](int shard) {
    return slots_[static_cast<std::size_t>(shard)].items;
  }

  /// Visits every slot in shard order (the deterministic merge order).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (int s = 0; s < num_; ++s) fn(slots_[static_cast<std::size_t>(s)].items);
  }

  /// Sum of all slots' arena counters (steady-state allocation hook).
  [[nodiscard]] Arena::Stats arena_stats() const {
    Arena::Stats total;
    for (int s = 0; s < num_; ++s) {
      const Arena::Stats& st = slots_[static_cast<std::size_t>(s)].arena.stats();
      total.block_requests += st.block_requests;
      total.slabs += st.slabs;
      total.bytes_reserved += st.bytes_reserved;
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    Arena arena;
    ArenaVector<T> items{ArenaAllocator<T>(&arena)};
  };
  int num_ = 0;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace mns::congest
