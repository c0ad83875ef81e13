#include "congest/simulator.hpp"

#include <stdexcept>
#include <string>

#include "transport/transport.hpp"

namespace mns::congest {

namespace {

/// Endpoint-violation text with the offending ids: contract tests assert the
/// `from` vertex and edge id appear verbatim, so misdirected sends are
/// debuggable from the what() string alone.
std::string endpoint_violation(const char* fn, VertexId from, EdgeId edge,
                               const Edge& e) {
  return std::string(fn) + ": from vertex " + std::to_string(from) +
         " is not an endpoint of edge " + std::to_string(edge) + " (" +
         std::to_string(e.u) + ", " + std::to_string(e.v) + ")";
}

}  // namespace

Simulator::Simulator(const Graph& g, ExecutionPolicy policy) : g_(&g) {
  used_.assign(static_cast<std::size_t>(g.num_edges()) * 2, 0);
  inbox_begin_.assign(g.num_vertices(), 0);
  inbox_count_.assign(g.num_vertices(), 0);
  inbox_cursor_.assign(g.num_vertices(), 0);
  set_execution_policy(policy);
}

void Simulator::set_execution_policy(ExecutionPolicy policy) {
  if (!pending_to_.empty())
    throw std::logic_error(
        "Simulator::set_execution_policy: sends pending; the policy may only "
        "change between rounds");
  for (int s = 0; s < num_shards_; ++s)
    if (!shards_[static_cast<std::size_t>(s)].entries.empty())
      throw std::logic_error(
          "Simulator::set_execution_policy: staged sends pending; the policy "
          "may only change between rounds");
  const int resolved = policy.resolved();
  if (resolved != num_shards_) {
    num_shards_ = resolved;
    // The old shards were verified empty above.
    shards_ = std::make_unique<SendShard[]>(static_cast<std::size_t>(resolved));
    pool_.reset();  // rebuilt lazily at the new width
  }
}

void Simulator::set_transport(transport::Transport* transport) {
  if (!pending_to_.empty())
    throw std::logic_error(
        "Simulator::set_transport: sends pending; the transport may only "
        "change between rounds");
  for (int s = 0; s < num_shards_; ++s)
    if (!shards_[static_cast<std::size_t>(s)].entries.empty())
      throw std::logic_error(
          "Simulator::set_transport: staged sends pending; the transport may "
          "only change between rounds");
  transport_ = transport;
}

WorkerPool& Simulator::pool() {
  if (!pool_) pool_ = std::make_unique<WorkerPool>(num_shards_);
  return *pool_;
}

void Simulator::throw_endpoint_violation(VertexId from, EdgeId edge) const {
  throw std::invalid_argument(
      endpoint_violation("Simulator::send", from, edge, g_->edge(edge)));
}

void Simulator::throw_capacity_violation() {
  throw std::invalid_argument(
      "Simulator::send: directed edge already used this round (CONGEST "
      "capacity violated)");
}

void Simulator::stage_send(int shard, VertexId from, EdgeId edge,
                           const Message& msg) {
  // Validation strictly precedes the buffer write: a throwing call leaves
  // the shard's buffer untouched (DESIGN.md §9).
  if (shard < 0 || shard >= num_shards_)
    throw std::out_of_range("Simulator::stage_send: shard out of range");
  const Edge& e = g_->edge(edge);
  if (e.u != from && e.v != from)
    throw std::invalid_argument(
        endpoint_violation("Simulator::stage_send", from, edge, e));
  const std::uint32_t slot = static_cast<std::uint32_t>(
      2 * static_cast<std::size_t>(edge) + (from == e.u ? 0 : 1));
  const VertexId to = (from == e.u) ? e.v : e.u;
  shards_[static_cast<std::size_t>(shard)].entries.push_back(
      StagedSend{slot, to, msg});
}

void Simulator::close_round() {
  // Validate the staged shard sends BEFORE mutating anything the caller can
  // observe, so a CONGEST capacity violation leaves the simulator exactly
  // as sequential send() would: round not counted, direct sends still
  // pending, inboxes intact. The poisoned round's staged sends are
  // discarded (they were never counted) and their marks undone, keeping the
  // simulator usable after a caught violation. The check runs here, on one
  // thread, in the deterministic merge order.
  for (int sh = 0; sh < num_shards_; ++sh) {
    for (const StagedSend& s : shards_[static_cast<std::size_t>(sh)].entries) {
      if (used_[s.slot]) {
        // Every staged send before this one marked a slot no direct send
        // holds (it would have thrown here otherwise): unmark exactly those.
        for (int k = 0; k <= sh; ++k)
          for (const StagedSend& t :
               shards_[static_cast<std::size_t>(k)].entries) {
            if (&t == &s) break;
            used_[t.slot] = 0;
          }
        for (int k = 0; k < num_shards_; ++k)
          shards_[static_cast<std::size_t>(k)].entries.clear();
        throw std::invalid_argument(
            "Simulator::finish_round: directed edge already used this round "
            "(CONGEST capacity violated by a staged send)");
      }
      used_[s.slot] = 1;
    }
  }
  ++rounds_;
  // Retire the previous round's inboxes: only the old frontier is touched.
  for (VertexId v : frontier_) inbox_count_[v] = 0;
  frontier_.clear();
  // Merge staged shard sends into the canonical pending list. Order is
  // direct send()s first (in call order), then shard 0, 1, ... each in its
  // own staging order. The vertex engine stages a contiguous block of the
  // canonical frontier into each shard, so this concatenation reproduces the
  // sequential send order EXACTLY — inboxes, counters and delivered_to() are
  // bit-identical at any thread count.
  for (int sh = 0; sh < num_shards_; ++sh) {
    SendShard& shard = shards_[static_cast<std::size_t>(sh)];
    for (const StagedSend& s : shard.entries) {
      pending_to_.push_back(s.to);
      pending_slot_.push_back(s.slot);
      pending_msg_.push_back(s.msg);
      ++messages_;
    }
    shard.entries.clear();
  }
  // Transport seam (DESIGN.md §11): the canonical merged batch is complete;
  // let the transport block for remote delivery and substitute authoritative
  // payload bytes before anything is delivered. A throw here poisons the
  // round (documented on finish_round()).
  if (transport_ != nullptr) {
    transport::RoundTraffic traffic;
    traffic.round = rounds_;
    traffic.to = {pending_to_.data(), pending_to_.size()};
    traffic.slot = {pending_slot_.data(), pending_slot_.size()};
    traffic.payload = {pending_msg_.data(), pending_msg_.size()};
    transport_->exchange(traffic);
  }
  // Reset CONGEST capacity for the next round: the batch lists every slot
  // marked this round, direct and staged alike.
  for (std::uint32_t slot : pending_slot_) used_[slot] = 0;
}

void Simulator::finish_round() {
  close_round();
  // Count messages per destination; destinations join the frontier on
  // their first message. Sort-free CSR: the per-destination counts become
  // contiguous ranges in frontier order.
  const std::size_t m = pending_to_.size();
  for (std::size_t i = 0; i < m; ++i) {
    VertexId to = pending_to_[i];
    if (inbox_count_[to]++ == 0) frontier_.push_back(to);
  }
  std::uint32_t offset = 0;
  for (VertexId v : frontier_) {
    inbox_begin_[v] = offset;
    inbox_cursor_[v] = offset;
    offset += inbox_count_[v];
  }
  // Scatter into the reused packed buffers (capacity persists across
  // rounds; resize only adjusts the logical size).
  inbox_slot_.resize(m);
  inbox_msg_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t c = inbox_cursor_[pending_to_[i]]++;
    inbox_slot_[c] = pending_slot_[i];
    inbox_msg_[c] = pending_msg_[i];
  }
  pending_to_.clear();
  pending_slot_.clear();
  pending_msg_.clear();
}

RoundBatch Simulator::finish_round_batch() {
  close_round();
  // The batch becomes the delivered storage as is; the swapped-out buffers
  // keep their capacity for the next round's sends (vector swaps are
  // pointer swaps).
  batch_to_.swap(pending_to_);
  inbox_slot_.swap(pending_slot_);
  inbox_msg_.swap(pending_msg_);
  pending_to_.clear();
  pending_slot_.clear();
  pending_msg_.clear();
  return RoundBatch{{batch_to_.data(), batch_to_.size()},
                    {inbox_slot_.data(), inbox_slot_.size()},
                    {inbox_msg_.data(), inbox_msg_.size()}};
}

}  // namespace mns::congest
