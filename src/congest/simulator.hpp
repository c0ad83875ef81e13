// Synchronous CONGEST-model simulator (paper §1.3.1).
//
// Communication proceeds in rounds; per round each node may send one message
// per incident edge per direction. Message payloads are fixed small PODs
// (128 bits ≈ O(log n) for any realistic n), enforced by the type. The
// simulator counts rounds and messages — rounds are the quantity every
// theorem in the paper bounds.
//
// The round-turnover path is allocation-free in steady state: every buffer
// is a std::vector reused across rounds, so clear() and resize() keep its
// capacity (DESIGN.md §9 "Round buffers"), inboxes are built CSR-style by
// per-destination counting (no sorting), and finish_round() touches only
// the nodes that actually received or sent messages (the active frontier) —
// O(messages per round), NOT O(n). Algorithms with long sparse tails (BFS,
// convergecast, pipelined upcasts) simulate millions of rounds without
// paying for idle nodes.
//
// Wire format (DESIGN.md §9): a message in flight is 20 bytes — the directed
// edge slot `2e + side` packed into one uint32 (side 0 = sent by edge(e).u)
// plus the 16-byte payload — stored in structure-of-arrays form. The sender
// is NOT stored: it is re-derived from the slot via the graph by the Inbox
// decoding view, so receive paths still see full Delivery records while
// finish_round()'s merge streams through cache-line-dense buffers.
//
// Thread-parallel execution (DESIGN.md §7 "Parallel execution model"): an
// ExecutionPolicy{threads} shards the per-round send work across a worker
// pool. Worker threads stage sends into private per-shard buffers via
// stage_send(); finish_round() merges the shards in a fixed deterministic
// order (shard id, then staging order within the shard — which the vertex
// engine pins to the canonical frontier order), so rounds, message counts,
// inbox contents and delivered_to() are bit-identical to threads == 1.
// Parallelism is a wall-clock optimization, never a semantic change.
//
// Two delivery forms (DESIGN.md §7 "Delivery forms"). finish_round()
// scatters the round into per-destination inboxes (inbox(v), delivered_to());
// finish_round_batch() stops after the transport exchange and hands back the
// canonical merged batch itself, in send order, building no inboxes. Both
// count, check and exchange the round identically; the vertex engine picks
// the batch form for programs that can consume it when one shard runs.
//
// Transport seam (DESIGN.md §11 "Transport layer"): an optional
// transport::Transport installed via set_transport() observes each round's
// canonical merged traffic at the round boundary — it may block until
// delivery is complete at this endpoint and substitute authoritative remote
// payload bytes, but never add, remove or reorder entries. The default
// (none installed) is bit-identical to transport::InProcessTransport.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "congest/execution.hpp"
#include "graph/graph.hpp"

namespace mns::transport {
class Transport;
}  // namespace mns::transport

namespace mns::congest {

/// O(log n)-bit message: 128 bits of payload.
struct Message {
  std::int32_t tag = 0;    ///< algorithm-defined (e.g. part id)
  std::int32_t aux = 0;    ///< algorithm-defined (e.g. edge id)
  std::int64_t value = 0;  ///< algorithm-defined (e.g. weight / label)
};

/// A delivered message as receive paths see it. This is the DECODED form:
/// on the wire only the directed slot and the payload exist (20 bytes);
/// `from` is recomputed from slot + graph by the Inbox view.
struct Delivery {
  VertexId from = kInvalidVertex;
  EdgeId edge = kInvalidEdge;
  Message msg;
};

/// A vertex's inbox for the round that just finished: a thin decoding view
/// over the packed slot/payload arrays. Iteration and indexing yield
/// Delivery BY VALUE (decoded on the fly); `for (const Delivery& d : inbox)`
/// works unchanged. The raw packed arrays are exposed via slots()/payloads()
/// for reference decoders and parity tests.
class Inbox {
 public:
  Inbox() = default;
  Inbox(const Graph* g, const std::uint32_t* slots, const Message* msgs,
        std::size_t count) noexcept
      : g_(g), slots_(slots), msgs_(msgs), count_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Decodes delivery i: edge = slot >> 1, from = the endpoint picked by the
  /// slot's side bit (0 = edge(e).u sent it).
  [[nodiscard]] Delivery operator[](std::size_t i) const {
    const std::uint32_t slot = slots_[i];
    const EdgeId e = static_cast<EdgeId>(slot >> 1);
    const Edge& ed = g_->edge(e);
    return Delivery{(slot & 1u) != 0 ? ed.v : ed.u, e, msgs_[i]};
  }
  [[nodiscard]] Delivery front() const { return (*this)[0]; }

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Delivery;
    using difference_type = std::ptrdiff_t;
    using reference = Delivery;
    using pointer = void;

    iterator() = default;
    iterator(const Inbox* box, std::size_t i) noexcept : box_(box), i_(i) {}
    [[nodiscard]] Delivery operator*() const { return (*box_)[i_]; }
    iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator tmp = *this;
      ++i_;
      return tmp;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const Inbox* box_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() const noexcept { return {this, count_}; }

  /// Raw packed directed slots (2e + side), parallel to payloads().
  [[nodiscard]] std::span<const std::uint32_t> slots() const noexcept {
    return {slots_, count_};
  }
  /// Raw payloads, parallel to slots().
  [[nodiscard]] std::span<const Message> payloads() const noexcept {
    return {msgs_, count_};
  }

 private:
  const Graph* g_ = nullptr;
  const std::uint32_t* slots_ = nullptr;
  const Message* msgs_ = nullptr;
  std::size_t count_ = 0;
};

/// One finished round's deliveries in canonical batch order (SoA): entry i
/// is the payload that travelled on directed slot slot[i] to vertex to[i].
/// Each receiver's entries appear in its inbox order. Returned by
/// Simulator::finish_round_batch(); valid until the next round end.
struct RoundBatch {
  std::span<const VertexId> to;
  std::span<const std::uint32_t> slot;
  std::span<const Message> payload;

  [[nodiscard]] std::size_t size() const noexcept { return to.size(); }
};

class Simulator {
 public:
  explicit Simulator(const Graph& g, ExecutionPolicy policy = {});
  // Inbox views and round batches point into the simulator's buffers; the
  // simulator is pinned in place (nothing in the codebase moves one).
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// Queues a message from `from` across `edge` for delivery next round.
  /// Throws if `from` is not an endpoint of `edge` or if this directed edge
  /// was already used this round (CONGEST capacity). Inline: it is the
  /// per-message path of every one-shard round; the throws are out of line.
  void send(VertexId from, EdgeId edge, const Message& msg) {
    const Edge& e = g_->edge(edge);
    const bool from_u = e.u == from;
    if (!from_u && e.v != from) [[unlikely]]
      throw_endpoint_violation(from, edge);
    const std::uint32_t slot =
        2 * static_cast<std::uint32_t>(edge) + (from_u ? 0u : 1u);
    if (used_[slot] != 0) [[unlikely]]
      throw_capacity_violation();
    used_[slot] = 1;
    pending_to_.push_back(from_u ? e.v : e.u);
    pending_slot_.push_back(slot);
    pending_msg_.push_back(msg);
    ++messages_;
  }

  // -- parallel staging (used by the vertex-program engine) ----------------

  /// How the per-round work is fanned out. May only change between rounds
  /// (throws if sends are pending).
  void set_execution_policy(ExecutionPolicy policy);
  /// Resolved shard count (== worker threads the engine fans over).
  [[nodiscard]] int num_shards() const noexcept { return num_shards_; }
  /// The lazily created worker pool matching the policy. Only meaningful
  /// when num_shards() > 1.
  [[nodiscard]] WorkerPool& pool();

  /// Stages a send into `shard`'s private buffer; delivery happens at the
  /// next finish_round(), merged deterministically (see class comment).
  /// Endpoint validation happens here (throws like send()); the CONGEST
  /// capacity check is deferred to the merge so that staging never writes
  /// shared state — each shard may be driven by a different thread, and the
  /// engine guarantees a vertex's sends all land in one shard, which by the
  /// capacity rule (slot 2e+side belongs to one endpoint) keeps shards
  /// disjoint. Capacity violations still throw, deterministically, from
  /// finish_round(). Validation precedes any buffer write, so a throwing
  /// call leaves every buffer as it was (pinned by the allocation tests).
  void stage_send(int shard, VertexId from, EdgeId edge, const Message& msg);

  /// Ends the round: delivers queued messages into inboxes. Cost is linear in
  /// the messages of this round and the previous one (frontier reset), never
  /// in the number of nodes. With a transport installed, its exchange() runs
  /// on the canonical merged batch before the inbox scatter; a
  /// TransportError poisons the round (the simulator must not be reused).
  void finish_round();

  /// Ends the round like finish_round() — same merge, capacity check,
  /// transport exchange and counters — but builds no inboxes: the canonical
  /// batch moves (a buffer swap, no copy) into delivered storage and is
  /// returned in send order, readable until the next round end. Afterwards
  /// delivered_to() and every inbox(v) are empty. Capacity is reset before
  /// the batch is returned, so a caller that throws while reading it leaves
  /// the simulator usable.
  [[nodiscard]] RoundBatch finish_round_batch();

  /// Installs a message transport (non-owning; must outlive the simulator or
  /// be detached with nullptr). May only change between rounds, like
  /// set_execution_policy(). Default none == InProcessTransport semantics.
  void set_transport(transport::Transport* transport);

  /// Messages delivered to v in the round that just finished, as a decoding
  /// view over the packed buffers (empty after finish_round_batch()). The
  /// view stays valid until the next round end. Out-of-range vertices throw
  /// (always on, consistent with send()'s endpoint validation —
  /// inbox_count_ would otherwise be read out of bounds and an NDEBUG assert
  /// could not be exercised by the contract tests).
  [[nodiscard]] Inbox inbox(VertexId v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= inbox_count_.size())
      throw std::out_of_range("Simulator::inbox: vertex out of range");
    const std::uint32_t count = inbox_count_[v];
    if (count == 0) return {};  // begin may be stale for idle nodes
    return Inbox(g_, inbox_slot_.data() + inbox_begin_[v],
                 inbox_msg_.data() + inbox_begin_[v], count);
  }

  /// Nodes with a nonempty inbox from the round that just finished, in
  /// first-delivery order. Receive phases that iterate this instead of all
  /// vertices are O(messages delivered), not O(n). Valid until the next
  /// round end; empty after finish_round_batch().
  [[nodiscard]] std::span<const VertexId> delivered_to() const noexcept {
    return {frontier_.data(), frontier_.size()};
  }

  [[nodiscard]] long long rounds() const noexcept { return rounds_; }
  [[nodiscard]] long long messages_sent() const noexcept { return messages_; }

 private:
  /// One staged send: precomputed directed slot + destination so the merge
  /// is a straight append with a capacity check. 24 bytes (was 40 with the
  /// unpacked Delivery inside).
  struct StagedSend {
    std::uint32_t slot;
    VertexId to;
    Message msg;
  };
  /// Per-shard private staging buffer (worker threads touch disjoint
  /// shards). alignas keeps two shards' hot state off one cache line
  /// (wall-clock only).
  struct alignas(64) SendShard {
    std::vector<StagedSend> entries;
  };

  /// The round end both forms share: staged-capacity check, merge into the
  /// canonical pending batch, transport exchange, counters, capacity reset.
  /// Leaves the batch in pending_* and the previous round's inboxes retired.
  void close_round();
  [[noreturn]] void throw_endpoint_violation(VertexId from, EdgeId edge) const;
  [[noreturn]] static void throw_capacity_violation();

  const Graph* g_;
  int num_shards_ = 0;  ///< 0 until the constructor applies the policy
  std::unique_ptr<SendShard[]> shards_;
  std::unique_ptr<WorkerPool> pool_;
  // Every buffer below is touched only by the thread driving
  // send()/finish_round(), never by staging workers.
  // Pending sends for the current round, in send order (SoA: destination,
  // packed directed slot, payload).
  std::vector<VertexId> pending_to_;
  std::vector<std::uint32_t> pending_slot_;
  std::vector<Message> pending_msg_;
  // Directed edge used this round (2e + side); reset from pending_slot_,
  // which lists exactly the slots marked.
  std::vector<char> used_;
  // Delivered storage. After finish_round(): per-vertex [begin, begin+count)
  // into the packed slot/payload arrays; only entries of vertices in
  // frontier_ are meaningful, everyone else has count 0 (maintained
  // incrementally, never rescanned). After finish_round_batch(): the batch,
  // swapped in whole — batch_to_ plus the packed slot/payload arrays.
  std::vector<std::uint32_t> inbox_begin_;
  std::vector<std::uint32_t> inbox_count_;
  std::vector<std::uint32_t> inbox_cursor_;
  std::vector<std::uint32_t> inbox_slot_;
  std::vector<Message> inbox_msg_;
  std::vector<VertexId> batch_to_;
  // Nodes with a nonempty inbox from the round that just finished.
  std::vector<VertexId> frontier_;
  transport::Transport* transport_ = nullptr;  ///< non-owning round hook
  long long rounds_ = 0;
  long long messages_ = 0;
};

}  // namespace mns::congest
