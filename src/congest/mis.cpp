#include "congest/mis.hpp"

#include <algorithm>

#include "congest/vertex_program.hpp"

namespace mns::congest {

namespace {

constexpr std::int32_t kTagPriority = 0;  ///< undecided: my phase priority
constexpr std::int32_t kTagJoined = 1;    ///< I just joined the MIS
constexpr std::int32_t kTagOut = 2;       ///< I am dominated; stop messaging me

constexpr char kUndecided = 0;
constexpr char kInMis = 1;
constexpr char kOut = 2;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Two rounds per phase:
///   Priority — undecided vertices exchange (priority, id); last phase's
///              departures say kTagOut once and fall silent forever.
///   Notify   — unbeaten vertices announce kTagJoined; undecided receivers
///              become dominated.
/// All receive-side writes are v-local (beaten flag, dominated flag, the
/// per-adjacency-slot decided bits of v's own rows); status transitions and
/// list rebuilds happen at the sequential end_round barrier.
struct LubyProgram {
  const Graph& g;
  std::uint64_t seed;
  std::vector<char>& status;
  std::vector<std::size_t> adj_base;  ///< v's slot range in adj_decided
  std::vector<char> adj_decided;      ///< per directed slot: neighbor decided
  std::vector<char> beaten;           ///< some rival outranked v this phase
  std::vector<char> dominated;        ///< a neighbor joined this phase
  std::vector<VertexId> undecided;    ///< ascending id order, rebuilt per phase
  std::vector<VertexId> farewell;     ///< went out last phase; announce once
  std::vector<VertexId> winners;
  std::vector<VertexId> active;       ///< this round's frontier
  int phase = 0;
  bool notify_round = false;

  LubyProgram(Simulator& sim, std::uint64_t s, std::vector<char>& st)
      : g(sim.graph()), seed(s), status(st) {
    const VertexId n = g.num_vertices();
    adj_base.resize(static_cast<std::size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v)
      adj_base[static_cast<std::size_t>(v) + 1] =
          adj_base[static_cast<std::size_t>(v)] +
          static_cast<std::size_t>(g.degree(v));
    adj_decided.assign(adj_base.back(), 0);
    beaten.assign(static_cast<std::size_t>(n), 0);
    dominated.assign(static_cast<std::size_t>(n), 0);
    undecided.reserve(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) undecided.push_back(v);
    active = undecided;
  }

  [[nodiscard]] std::size_t slot_of(VertexId v, VertexId neighbor) const {
    const std::span<const VertexId> nb = g.neighbors(v);
    const auto it = std::lower_bound(nb.begin(), nb.end(), neighbor);
    return adj_base[static_cast<std::size_t>(v)] +
           static_cast<std::size_t>(it - nb.begin());
  }

  [[nodiscard]] std::span<const VertexId> frontier() const { return active; }

  void send(VertexId v, VertexSender& out) {
    const std::span<const EdgeId> ie = g.incident_edges(v);
    const std::size_t base = adj_base[static_cast<std::size_t>(v)];
    if (!notify_round) {
      const bool leaving = status[static_cast<std::size_t>(v)] == kOut;
      const Message msg = leaving
                              ? Message{kTagOut, 0, 0}
                              : Message{kTagPriority, 0,
                                        mis_priority(seed, phase, v)};
      for (std::size_t i = 0; i < ie.size(); ++i)
        if (!adj_decided[base + i]) out.send(ie[i], msg);
    } else {
      for (std::size_t i = 0; i < ie.size(); ++i)
        if (!adj_decided[base + i]) out.send(ie[i], Message{kTagJoined, 0, 0});
    }
  }

  void receive(VertexId v, Inbox inbox, const ShardContext&) {
    const std::int64_t mine =
        mis_priority(seed, phase, v);  // only read when undecided
    for (const Delivery& d : inbox) {
      switch (d.msg.tag) {
        case kTagPriority:
          if (status[static_cast<std::size_t>(v)] == kUndecided &&
              (d.msg.value > mine || (d.msg.value == mine && d.from < v)))
            beaten[static_cast<std::size_t>(v)] = 1;
          break;
        case kTagJoined:
          adj_decided[slot_of(v, d.from)] = 1;
          if (status[static_cast<std::size_t>(v)] == kUndecided)
            dominated[static_cast<std::size_t>(v)] = 1;
          break;
        case kTagOut:
        default:
          adj_decided[slot_of(v, d.from)] = 1;
          break;
      }
    }
  }

  void end_round() {
    if (!notify_round) {
      // Priority barrier: unbeaten undecided vertices win this phase. The
      // maximum (priority, id) is never beaten, so winners is never empty.
      farewell.clear();
      winners.clear();
      for (VertexId v : undecided)
        if (!beaten[static_cast<std::size_t>(v)])
          winners.push_back(v);
        else
          beaten[static_cast<std::size_t>(v)] = 0;
      active = winners;
      notify_round = true;
      return;
    }
    // Notify barrier: winners join, dominated vertices leave (and will say
    // farewell in the next priority round).
    std::vector<VertexId> still;
    still.reserve(undecided.size());
    for (VertexId v : winners) status[static_cast<std::size_t>(v)] = kInMis;
    for (VertexId v : undecided) {
      if (status[static_cast<std::size_t>(v)] != kUndecided) continue;
      if (dominated[static_cast<std::size_t>(v)]) {
        dominated[static_cast<std::size_t>(v)] = 0;
        status[static_cast<std::size_t>(v)] = kOut;
        farewell.push_back(v);
      } else {
        still.push_back(v);
      }
    }
    undecided.swap(still);
    ++phase;
    notify_round = false;
    // Next priority-round frontier: survivors plus the one-shot departure
    // announcements, merged in ascending id order (both lists are sorted).
    active.clear();
    if (!undecided.empty()) {
      std::merge(undecided.begin(), undecided.end(), farewell.begin(),
                 farewell.end(), std::back_inserter(active));
    }
  }
};

}  // namespace

std::int64_t mis_priority(std::uint64_t seed, int phase, VertexId v) {
  const std::uint64_t h = splitmix64(
      seed ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) |
              (static_cast<std::uint64_t>(static_cast<std::uint32_t>(phase))
               << 32)));
  return static_cast<std::int64_t>(h >> 1);  // non-negative
}

MisPayload luby_mis(const Mis& q, PhaseMeter& meter) {
  Simulator& sim = meter.sim();
  MisPayload out;
  out.in_mis.assign(static_cast<std::size_t>(sim.graph().num_vertices()), 0);
  std::vector<char> status(out.in_mis.size(), kUndecided);
  LubyProgram prog(sim, q.seed, status);
  while (!prog.frontier().empty()) {
    const int this_phase = prog.phase;
    meter.open_phase();
    while (prog.phase == this_phase && !prog.frontier().empty())
      (void)run_vertex_program_round(sim, prog);
    meter.close_phase("luby-phase");
  }
  for (std::size_t v = 0; v < status.size(); ++v)
    if (status[v] == kInMis) {
      out.in_mis[v] = 1;
      ++out.size;
    }
  return out;
}

std::vector<char> greedy_mis(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<char> in(static_cast<std::size_t>(n), 0);
  std::vector<char> blocked(static_cast<std::size_t>(n), 0);
  for (VertexId v = 0; v < n; ++v) {
    if (blocked[static_cast<std::size_t>(v)]) continue;
    in[static_cast<std::size_t>(v)] = 1;
    for (VertexId u : g.neighbors(v)) blocked[static_cast<std::size_t>(u)] = 1;
  }
  return in;
}

std::string verify_maximal_independent_set(const Graph& g,
                                           const std::vector<char>& in_mis) {
  const VertexId n = g.num_vertices();
  if (static_cast<VertexId>(in_mis.size()) != n)
    return "membership vector sized differently from the graph";
  for (VertexId v = 0; v < n; ++v) {
    bool covered = in_mis[static_cast<std::size_t>(v)] != 0;
    for (VertexId u : g.neighbors(v)) {
      if (in_mis[static_cast<std::size_t>(u)]) {
        if (in_mis[static_cast<std::size_t>(v)]) return "two adjacent members";
        covered = true;
      }
    }
    if (!covered) return "uncovered vertex: the set is not maximal";
  }
  return "";
}

}  // namespace mns::congest
