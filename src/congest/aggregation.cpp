#include "congest/aggregation.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>

namespace mns::congest {
namespace {
constexpr AggValue kInfinity{std::numeric_limits<std::int64_t>::max(),
                             std::numeric_limits<std::int32_t>::max()};
constexpr std::uint64_t kIndexLimit =
    std::numeric_limits<std::uint32_t>::max();

/// Exclusive prefix sum in place over counts stored at [1, size): afterwards
/// a[i] is the start of range i and a.back() the total.
void prefix_sum(std::vector<std::uint32_t>& a) {
  for (std::size_t i = 1; i < a.size(); ++i) a[i] += a[i - 1];
}
}  // namespace

PartwiseAggregator::PartwiseAggregator(const Graph& g, const Partition& parts,
                                       const Shortcut& shortcut)
    : g_(&g), parts_(&parts) {
  const PartId num_parts = parts.num_parts();
  require(static_cast<PartId>(shortcut.edges_of_part.size()) == num_parts,
          "PartwiseAggregator: shortcut size mismatch");
  require(parts.part_of_all().size() ==
              static_cast<std::size_t>(g.num_vertices()),
          "PartwiseAggregator: partition size differs from the graph's");
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  for (const std::vector<EdgeId>& es : shortcut.edges_of_part)
    for (EdgeId e : es)
      require(e >= 0 && static_cast<std::size_t>(e) < m,
              "PartwiseAggregator: shortcut edge out of range");

  // Both passes visit parts in ascending id; within part p an edge or node
  // counts once, deduplicated by remembering the last part that touched it.
  // Ascending visits make every parts-of-edge range sorted without a sort.
  // Part p communicates over its intra-part edges, met from each member's
  // side, and over its shortcut edges.
  std::vector<PartId> edge_mark(m, kNoPart);
  std::vector<PartId> node_mark(n, kNoPart);
  auto for_each_part_edge = [&](PartId p, auto&& fn) {
    for (VertexId v : parts.members(p)) {
      const std::span<const VertexId> nbrs = g.neighbors(v);
      const std::span<const EdgeId> es = g.incident_edges(v);
      for (std::size_t j = 0; j < es.size(); ++j)
        if (parts.part_of(nbrs[j]) == p) fn(es[j]);
    }
    for (EdgeId e : shortcut.edges_of_part[static_cast<std::size_t>(p)])
      fn(e);
  };

  // Pass 1: count parts per edge and participations per node.
  poe_offset_.assign(m + 1, 0);
  std::vector<std::uint32_t> node_offset(n + 1, 0);
  for (PartId p = 0; p < num_parts; ++p) {
    for (VertexId v : parts.members(p)) {
      node_mark[static_cast<std::size_t>(v)] = p;
      ++node_offset[static_cast<std::size_t>(v) + 1];
    }
    for_each_part_edge(p, [&](EdgeId e) {
      const std::size_t ei = static_cast<std::size_t>(e);
      if (edge_mark[ei] == p) return;
      edge_mark[ei] = p;
      ++poe_offset_[ei + 1];
      const Edge& ed = g.edge(e);
      for (VertexId x : {ed.u, ed.v}) {
        const std::size_t xi = static_cast<std::size_t>(x);
        if (node_mark[xi] != p) {
          node_mark[xi] = p;
          ++node_offset[xi + 1];
        }
      }
    });
  }
  // 2 * total bits and the participations must fit packed 32-bit indexing.
  std::uint64_t bits = 0;
  std::uint64_t nodes = 0;
  for (std::size_t e = 0; e < m; ++e) bits += poe_offset_[e + 1];
  for (std::size_t v = 0; v < n; ++v) nodes += node_offset[v + 1];
  require(2 * bits < kIndexLimit && nodes < kIndexLimit,
          "PartwiseAggregator: instance exceeds packed 32-bit slot indexing");
  prefix_sum(poe_offset_);
  prefix_sum(node_offset);
  participations_ = node_offset[n];

  // Pass 2: fill the parts-of-edge lists and, alongside, owner_: each newly
  // seen (node, part) takes the next index in the node's range, and every
  // edge bit records both endpoints' indices.
  poe_flat_.resize(poe_offset_[m]);
  owner_.resize(2 * poe_flat_.size());
  own_slot_.assign(n, 0);
  redirty_offset_.assign(participations_ + 1, 0);
  std::fill(edge_mark.begin(), edge_mark.end(), kNoPart);
  std::fill(node_mark.begin(), node_mark.end(), kNoPart);
  std::vector<std::uint32_t> edge_fill(poe_offset_.begin(),
                                       poe_offset_.end() - 1);
  std::vector<std::uint32_t> current(n, 0);  // index of (v, p) under part p
  for (PartId p = 0; p < num_parts; ++p) {
    for (VertexId v : parts.members(p)) {
      const std::size_t vi = static_cast<std::size_t>(v);
      node_mark[vi] = p;
      current[vi] = node_offset[vi]++;
      own_slot_[vi] = current[vi];
    }
    for_each_part_edge(p, [&](EdgeId e) {
      const std::size_t ei = static_cast<std::size_t>(e);
      if (edge_mark[ei] == p) return;
      edge_mark[ei] = p;
      const std::uint32_t i = edge_fill[ei]++;
      poe_flat_[i] = p;
      const Edge& ed = g.edge(e);
      const VertexId ends[2] = {ed.u, ed.v};
      for (std::size_t side = 0; side < 2; ++side) {
        const std::size_t xi = static_cast<std::size_t>(ends[side]);
        if (node_mark[xi] != p) {
          node_mark[xi] = p;
          current[xi] = node_offset[xi]++;
        }
        owner_[2 * std::size_t{i} + side] = current[xi];
        ++redirty_offset_[std::size_t{current[xi]} + 1];
      }
    });
  }

  // redirty_: walk every vertex's incident edges in order and file each of
  // its outgoing bits under the participation that owns it. The offsets
  // double as fill cursors and are shifted back afterwards.
  prefix_sum(redirty_offset_);
  redirty_.resize(owner_.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (EdgeId e : g.incident_edges(v)) {
      const std::size_t ei = static_cast<std::size_t>(e);
      const std::uint32_t side = g.edge(e).u == v ? 0u : 1u;
      const std::uint32_t slot = 2 * static_cast<std::uint32_t>(e) + side;
      for (std::uint32_t i = poe_offset_[ei]; i < poe_offset_[ei + 1]; ++i) {
        const std::uint32_t s = owner_[2 * std::size_t{i} + side];
        redirty_[redirty_offset_[s]++] = SlotBit{slot, i - poe_offset_[ei]};
      }
    }
  }
  for (std::size_t s = participations_; s > 0; --s)
    redirty_offset_[s] = redirty_offset_[s - 1];
  redirty_offset_[0] = 0;

  word_off_.assign(2 * m + 1, 0);
  for (std::size_t d = 0; d < 2 * m; ++d) {
    const std::uint32_t k_e = poe_offset_[d / 2 + 1] - poe_offset_[d / 2];
    word_off_[d + 1] = word_off_[d] + (k_e + 63) / 64;
  }
  active_base_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    active_base_[v + 1] = active_base_[v] + static_cast<std::uint32_t>(
        g.degree(static_cast<VertexId>(v)));
}

/// The flooding schedule of aggregate_min as a VertexProgram over the
/// aggregator's tables and workspace. Ownership discipline (what makes the
/// parallel fan-out race-free): every directed slot d = 2e + side belongs to
/// its sender endpoint from(d); dirty words, cursors, records and the
/// active-slot list of d's owner are written only while the engine is
/// running from(d) — in the send phase when from(d) transmits, in the
/// receive phase when from(d) absorbs an improvement and re-dirties its own
/// outgoing slots. The receive phase also READS the record of the incoming
/// slot, which only the send phase writes. Per-participation state is
/// v-local. The only cross-vertex structure is the frontier, assembled from
/// PerShard lists at the barrier.
///
/// Send: each active slot transmits ONE part's value, the first dirty bit
/// at or after its cursor in circular order; the cursor then moves past it,
/// and the slot's record notes the part tag and the receiving participation.
/// A slot is active exactly while it has a dirty bit, so activity is read
/// off the words themselves. Receive: the record names the participation to
/// compare against, and an improvement sets the precomputed redirty_ bits,
/// all but the one back along the delivering edge (no echo; absorb()).
/// test_wire_parity pins the resulting traffic to recorded digests.
/// receive_batch absorbs a one-shard round in batch order and wakes
/// receivers in first-delivery order, which is receive()'s effect exactly
/// (vertex_program.hpp).
struct PartwiseAggregator::Program {
  const std::uint32_t* poe_off;
  const PartId* poe_flat;
  const std::uint32_t* word_off;
  const std::uint32_t* owner;
  const std::uint32_t* redirty_off;
  const SlotBit* redirty;
  AggValue* state;
  std::uint64_t* dirty;
  std::uint32_t* cursor;
  std::uint32_t* active;
  const std::uint32_t* active_base;
  std::uint32_t* active_count;
  SentRecord* record;
  char* delivered;
  std::vector<VertexId>& receivers;
  FrontierTracker& tracker;

  Program(PartwiseAggregator& a, FrontierTracker& t)
      : poe_off(a.poe_offset_.data()),
        poe_flat(a.poe_flat_.data()),
        word_off(a.word_off_.data()),
        owner(a.owner_.data()),
        redirty_off(a.redirty_offset_.data()),
        redirty(a.redirty_.data()),
        state(a.ws_.state.data()),
        dirty(a.ws_.dirty.data()),
        cursor(a.ws_.cursor.data()),
        active(a.ws_.active.data()),
        active_base(a.active_base_.data()),
        active_count(a.ws_.active_count.data()),
        record(a.ws_.record.data()),
        delivered(a.ws_.delivered.data()),
        receivers(a.ws_.receivers),
        tracker(t) {
    // Initially every participating (node, edge, part) with a finite value
    // is dirty outward, activated in ascending (edge, part, side) order.
    const Graph& g = *a.g_;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const std::size_t ei = static_cast<std::size_t>(e);
      const Edge& ed = g.edge(e);
      for (std::uint32_t i = poe_off[ei]; i < poe_off[ei + 1]; ++i)
        for (std::uint32_t side = 0; side < 2; ++side)
          if (!(state[owner[2 * std::size_t{i} + side]] == kInfinity))
            mark_dirty(side == 0 ? ed.u : ed.v,
                       2 * static_cast<std::uint32_t>(e) + side,
                       i - poe_off[ei]);
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (active_count[static_cast<std::size_t>(v)] != 0) tracker.seed(v);
  }

  static bool any_dirty(const std::uint64_t* w, std::uint32_t nw) {
    if (nw == 1) return w[0] != 0;
    return std::any_of(w, w + nw, [](std::uint64_t x) { return x != 0; });
  }

  /// First set bit of the nw-word mask `w` at or after bit `cur`, wrapping
  /// around; 64 * nw if none is set.
  static std::uint32_t first_dirty(const std::uint64_t* w, std::uint32_t nw,
                                   std::uint32_t cur) {
    auto at = [](std::uint32_t wi, std::uint64_t mask) {
      return (wi << 6) + static_cast<std::uint32_t>(std::countr_zero(mask));
    };
    const std::uint32_t cw = cur >> 6;
    const std::uint64_t ahead = w[cw] & (~std::uint64_t{0} << (cur & 63));
    if (ahead != 0) return at(cw, ahead);
    for (std::uint32_t wi = cw + 1; wi < nw; ++wi)
      if (w[wi] != 0) return at(wi, w[wi]);
    // Nothing at or after cur: the first set bit overall lies before it.
    for (std::uint32_t wi = 0; wi <= cw; ++wi)
      if (w[wi] != 0) return at(wi, w[wi]);
    return nw << 6;
  }

  /// Sets bit `bit` of `slot` (owned by v); returns true if that activated
  /// the slot, which is then appended to v's active list.
  bool mark_dirty(VertexId v, std::uint32_t slot, std::uint32_t bit) {
    std::uint64_t* w = dirty + word_off[slot];
    const bool was_active = any_dirty(w, word_off[slot + 1] - word_off[slot]);
    w[bit >> 6] |= std::uint64_t{1} << (bit & 63);
    if (was_active) return false;
    const std::size_t vi = static_cast<std::size_t>(v);
    active[active_base[vi] + active_count[vi]++] = slot;
    return true;
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }

  void send(VertexId u, VertexSender& out) {
    const std::size_t ui = static_cast<std::size_t>(u);
    std::uint32_t* slots = active + active_base[ui];
    const std::uint32_t count = active_count[ui];
    std::uint32_t kept = 0;
    for (std::uint32_t si = 0; si < count; ++si) {
      const std::uint32_t d = slots[si];
      const std::size_t e = d >> 1;
      const std::uint32_t base = poe_off[e];
      const std::uint32_t k = poe_off[e + 1] - base;
      std::uint64_t* w = dirty + word_off[d];
      const std::uint32_t nw = word_off[d + 1] - word_off[d];
      const std::uint32_t sent = first_dirty(w, nw, cursor[d]);
      if (sent >= k) continue;  // not dirty after all: drop the slot
      const std::size_t bit = std::size_t{base} + sent;
      const AggValue val = state[owner[2 * bit + (d & 1)]];
      record[d] = SentRecord{poe_flat[bit], owner[2 * bit + ((d & 1) ^ 1)]};
      out.send(static_cast<EdgeId>(e),
               Message{poe_flat[bit], val.aux, val.value});
      w[sent >> 6] &= ~(std::uint64_t{1} << (sent & 63));
      cursor[d] = sent + 1 == k ? 0 : sent + 1;
      if (any_dirty(w, nw)) slots[kept++] = d;
    }
    active_count[ui] = kept;
    if (kept > 0) tracker.keep_from_send(u, out.shard());
  }

  /// Absorbs the delivery `msg` on slot d at its receiver v; true if an
  /// improvement activated one of v's outgoing slots. The tag check catches
  /// a payload the transport substituted for something the sender did not
  /// send. An improvement re-dirties every bit of its participation except
  /// the one on d ^ 1, back toward the sender: the sender holds at most the
  /// value it just sent, so the echo could not improve it. A reverse bit
  /// that is already dirty stays dirty.
  bool absorb(VertexId v, std::uint32_t d, const Message& msg) {
    const SentRecord rec = record[d];
    require(rec.tag == msg.tag,
            "aggregate_min: delivery does not match its sender's slot");
    const AggValue incoming{msg.value, msg.aux};
    if (!(incoming < state[rec.receiver])) return false;
    state[rec.receiver] = incoming;
    const std::uint32_t back = d ^ 1u;
    bool woke = false;
    for (std::uint32_t r = redirty_off[rec.receiver];
         r < redirty_off[rec.receiver + 1]; ++r)
      if (redirty[r].slot != back)
        woke |= mark_dirty(v, redirty[r].slot, redirty[r].bit);
    return woke;
  }

  void receive(VertexId v, Inbox inbox, const ShardContext& ctx) {
    const std::span<const std::uint32_t> slots = inbox.slots();
    const std::span<const Message> payloads = inbox.payloads();
    bool woke = false;
    for (std::size_t j = 0; j < slots.size(); ++j)
      woke |= absorb(v, slots[j], payloads[j]);
    if (woke) tracker.wake_from_receive(v, ctx.shard);
  }

  void receive_batch(const RoundBatch& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const VertexId v = batch.to[i];
      char& mark = delivered[static_cast<std::size_t>(v)];
      if (mark == 0) {
        mark = 1;
        receivers.push_back(v);
      }
      if (absorb(v, batch.slot[i], batch.payload[i])) mark = 2;
    }
    for (VertexId v : receivers) {
      char& mark = delivered[static_cast<std::size_t>(v)];
      if (mark == 2) tracker.wake_from_receive(v, 0);
      mark = 0;
    }
    receivers.clear();
  }

  void end_round() { tracker.end_round(); }
};

AggregationResult PartwiseAggregator::aggregate_min(
    Simulator& sim, const std::vector<AggValue>& initial) {
  const Graph& g = *g_;
  const Partition& parts = *parts_;
  const VertexId n = g.num_vertices();
  require(static_cast<VertexId>(initial.size()) == n,
          "aggregate_min: initial size mismatch");

  const std::size_t slots = 2 * static_cast<std::size_t>(g.num_edges());
  ws_.state.assign(participations_, kInfinity);
  ws_.dirty.assign(word_off_[slots], 0);
  ws_.cursor.assign(slots, 0);
  ws_.active.resize(slots);
  ws_.active_count.assign(static_cast<std::size_t>(n), 0);
  ws_.record.resize(slots);
  ws_.delivered.assign(static_cast<std::size_t>(n), 0);
  ws_.receivers.clear();
  ws_.receivers.reserve(static_cast<std::size_t>(n));
  if (ws_.tracker && ws_.tracker->num_shards() == sim.num_shards())
    ws_.tracker->clear();
  else
    ws_.tracker.emplace(sim.num_shards(), n);
  // v's value for its own part.
  auto own = [&](VertexId v) -> AggValue& {
    return ws_.state[own_slot_[static_cast<std::size_t>(v)]];
  };
  for (VertexId v = 0; v < n; ++v)
    if (parts.part_of(v) != kNoPart) own(v) = initial[v];

  long long start = sim.rounds();
  Program prog(*this, *ws_.tracker);
  (void)run_vertex_program(sim, prog);

  AggregationResult out;
  out.rounds = sim.rounds() - start;
  out.min_of_part.assign(parts.num_parts(), kInfinity);
  for (VertexId v = 0; v < n; ++v) {
    PartId p = parts.part_of(v);
    if (p != kNoPart) out.min_of_part[p] = std::min(out.min_of_part[p], own(v));
  }
  // Convergence check: every member must hold the part minimum.
  for (VertexId v = 0; v < n; ++v) {
    PartId p = parts.part_of(v);
    if (p != kNoPart)
      require(own(v) == out.min_of_part[p],
              "aggregate_min: member did not converge to the part minimum");
  }
  return out;
}

}  // namespace mns::congest
