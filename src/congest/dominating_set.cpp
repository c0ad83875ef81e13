#include "congest/dominating_set.hpp"

#include <algorithm>

#include "congest/primitives.hpp"
#include "congest/vertex_program.hpp"

namespace mns::congest {

namespace {

constexpr std::int32_t kTagCovered = 0;  ///< I became covered last phase
constexpr std::int32_t kTagSpan = 1;     ///< my span (value) and id (aux)
constexpr std::int32_t kTagMax = 2;      ///< best span pair seen in my N[.]
constexpr std::int32_t kTagJoin = 3;     ///< I joined the dominating set

/// (span, id) with larger-span-then-smaller-id preference; span < 0 = none.
struct SpanPair {
  std::int64_t span = -1;
  VertexId id = kInvalidVertex;
};

bool better(const SpanPair& a, const SpanPair& b) {
  if (a.span != b.span) return a.span > b.span;
  return a.id < b.id;
}

/// Four rounds per phase: Status (new coverage announcements decrement
/// neighbor spans), Span (candidates exchange spans), Max (everyone who saw
/// a span relays the best, completing distance-2 visibility), Join (the
/// distance-2 maxima announce membership). Receive-side writes are v-local;
/// list rebuilds and status flips happen at the sequential barrier.
struct SpanGreedyProgram {
  enum class Round { kStatus, kSpan, kMax, kJoin };

  const Graph& g;
  std::vector<char>& in_set;
  std::vector<char> covered;
  std::vector<std::int64_t> span;  ///< uncovered vertices in N[v], exact
  std::vector<SpanPair> best1;     ///< max span pair over N[v] this phase
  std::vector<SpanPair> best2;     ///< max relayed pair this phase
  std::vector<VertexId> announce;  ///< newly covered, to announce at Status
  std::vector<VertexId> candidates, relay, selected, active;
  std::vector<VertexId> touched1_all, touched2_all;  ///< best1/best2 to reset
  PerShard<std::vector<VertexId>> touched1, touched2, newly_covered;
  VertexId uncovered;
  Round round = Round::kSpan;
  int phases = 0;

  SpanGreedyProgram(Simulator& sim, std::vector<char>& out)
      : g(sim.graph()),
        in_set(out),
        touched1(sim.num_shards()),
        touched2(sim.num_shards()),
        newly_covered(sim.num_shards()),
        uncovered(g.num_vertices()) {
    const VertexId n = g.num_vertices();
    covered.assign(static_cast<std::size_t>(n), 0);
    span.resize(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v)
      span[static_cast<std::size_t>(v)] = g.degree(v) + 1;
    best1.assign(static_cast<std::size_t>(n), SpanPair{});
    best2.assign(static_cast<std::size_t>(n), SpanPair{});
    begin_span_round();  // phase 1 has no coverage news: start at Span
  }

  void begin_span_round() {
    const VertexId n = g.num_vertices();
    candidates.clear();
    for (VertexId v = 0; v < n; ++v)
      if (span[static_cast<std::size_t>(v)] > 0) {
        candidates.push_back(v);
        best1[static_cast<std::size_t>(v)] =
            SpanPair{span[static_cast<std::size_t>(v)], v};
      }
    touched1_all = candidates;
    round = Round::kSpan;
    active = candidates;
  }

  [[nodiscard]] std::span<const VertexId> frontier() const { return active; }

  void send(VertexId v, VertexSender& out) {
    const std::span<const EdgeId> ie = g.incident_edges(v);
    switch (round) {
      case Round::kStatus:
        for (EdgeId e : ie) out.send(e, Message{kTagCovered, 0, 0});
        break;
      case Round::kSpan:
        for (EdgeId e : ie)
          out.send(e, Message{kTagSpan, v, span[static_cast<std::size_t>(v)]});
        break;
      case Round::kMax: {
        const SpanPair& b = best1[static_cast<std::size_t>(v)];
        for (EdgeId e : ie) out.send(e, Message{kTagMax, b.id, b.span});
        break;
      }
      case Round::kJoin:
        for (EdgeId e : ie) out.send(e, Message{kTagJoin, 0, 0});
        break;
    }
  }

  void receive(VertexId v, Inbox inbox, const ShardContext& ctx) {
    const auto sv = static_cast<std::size_t>(v);
    for (const Delivery& d : inbox) {
      switch (d.msg.tag) {
        case kTagCovered:
          --span[sv];
          break;
        case kTagSpan:
        case kTagMax: {
          const SpanPair cand{d.msg.value, d.msg.tag == kTagSpan
                                               ? d.from
                                               : d.msg.aux};
          SpanPair& mine = d.msg.tag == kTagSpan ? best1[sv] : best2[sv];
          if (mine.span < 0)
            (d.msg.tag == kTagSpan ? touched1 : touched2)[ctx.shard]
                .push_back(v);
          if (better(cand, mine)) mine = cand;
          break;
        }
        case kTagJoin:
        default:
          if (!covered[sv]) {
            covered[sv] = 1;
            --span[sv];  // v itself left the uncovered set
            newly_covered[ctx.shard].push_back(v);
          }
          break;
      }
    }
  }

  void end_round() {
    switch (round) {
      case Round::kStatus:
        begin_span_round();
        break;
      case Round::kSpan:
        // Relay set: candidates plus every vertex that saw a span — the
        // conduits between candidates two hops apart.
        relay = candidates;
        touched1.for_each([&](std::vector<VertexId>& part) {
          relay.insert(relay.end(), part.begin(), part.end());
          touched1_all.insert(touched1_all.end(), part.begin(), part.end());
          part.clear();
        });
        std::sort(relay.begin(), relay.end());
        round = Round::kMax;
        active = relay;
        break;
      case Round::kMax:
        touched2.for_each([&](std::vector<VertexId>& part) {
          touched2_all.insert(touched2_all.end(), part.begin(), part.end());
          part.clear();
        });
        // Distance-2 maximum test: v's own pair must top both what it saw
        // directly (best1 includes its own span) and what neighbors relayed.
        selected.clear();
        for (VertexId v : candidates) {
          const auto sv = static_cast<std::size_t>(v);
          const SpanPair mine{span[sv], v};
          if (better(best1[sv], mine)) continue;
          if (best2[sv].span >= 0 && better(best2[sv], mine)) continue;
          selected.push_back(v);
        }
        round = Round::kJoin;
        active = selected;
        break;
      case Round::kJoin: {
        announce.clear();
        for (VertexId v : selected) {
          const auto sv = static_cast<std::size_t>(v);
          in_set[sv] = 1;
          if (!covered[sv]) {  // may already be covered by a nearby joiner
            covered[sv] = 1;
            --span[sv];
            --uncovered;
            announce.push_back(v);
          }
        }
        newly_covered.for_each([&](std::vector<VertexId>& part) {
          for (VertexId u : part) {
            --uncovered;
            announce.push_back(u);
          }
          part.clear();
        });
        std::sort(announce.begin(), announce.end());
        for (VertexId v : touched1_all) best1[static_cast<std::size_t>(v)] = {};
        for (VertexId v : touched2_all) best2[static_cast<std::size_t>(v)] = {};
        touched1_all.clear();
        touched2_all.clear();
        ++phases;
        if (uncovered == 0) {
          active.clear();  // quiescent: the set dominates everything
        } else {
          round = Round::kStatus;
          active = announce;
        }
        break;
      }
    }
  }
};

}  // namespace

DomsetPayload span_greedy_dominating_set(const RootedTree& tree,
                                         PhaseMeter& meter) {
  Simulator& sim = meter.sim();
  const Graph& g = sim.graph();
  const VertexId n = g.num_vertices();
  require(tree.num_vertices() == n,
          "span_greedy_dominating_set: tree does not span the graph");
  DomsetPayload out;
  out.in_set.assign(static_cast<std::size_t>(n), 0);
  SpanGreedyProgram prog(sim, out.in_set);
  while (!prog.frontier().empty()) {
    const int this_phase = prog.phases;
    meter.open_phase();
    while (prog.phases == this_phase && !prog.frontier().empty())
      (void)run_vertex_program_round(sim, prog);
    meter.close_phase("span-phase");
  }
  // The size is a quantity the network computes: subtree sums to the root.
  std::vector<std::int64_t> ones(static_cast<std::size_t>(n), 0);
  VertexId local = 0;
  for (VertexId v = 0; v < n; ++v)
    if (out.in_set[static_cast<std::size_t>(v)]) {
      ones[static_cast<std::size_t>(v)] = 1;
      ++local;
    }
  const ConvergecastSumResult sum = convergecast_sum(sim, tree, ones);
  out.size = static_cast<VertexId>(sum.sum_at_root);
  require(out.size == local,
          "span_greedy_dominating_set: convergecast disagrees with local count");
  return out;
}

std::vector<char> greedy_dominating_set(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<char> in(static_cast<std::size_t>(n), 0);
  std::vector<char> covered(static_cast<std::size_t>(n), 0);
  VertexId uncovered = n;
  while (uncovered > 0) {
    VertexId pick = kInvalidVertex;
    std::int64_t pick_span = 0;
    for (VertexId v = 0; v < n; ++v) {
      std::int64_t s = covered[static_cast<std::size_t>(v)] ? 0 : 1;
      for (VertexId u : g.neighbors(v))
        if (!covered[static_cast<std::size_t>(u)]) ++s;
      if (s > pick_span) {  // ties: smaller id wins (first seen)
        pick_span = s;
        pick = v;
      }
    }
    in[static_cast<std::size_t>(pick)] = 1;
    auto cover = [&](VertexId u) {
      if (!covered[static_cast<std::size_t>(u)]) {
        covered[static_cast<std::size_t>(u)] = 1;
        --uncovered;
      }
    };
    cover(pick);
    for (VertexId u : g.neighbors(pick)) cover(u);
  }
  return in;
}

std::string verify_dominating_set(const Graph& g,
                                  const std::vector<char>& in_set) {
  const VertexId n = g.num_vertices();
  if (static_cast<VertexId>(in_set.size()) != n)
    return "membership vector sized differently from the graph";
  for (VertexId v = 0; v < n; ++v) {
    if (in_set[static_cast<std::size_t>(v)]) continue;
    bool dominated = false;
    for (VertexId u : g.neighbors(v))
      if (in_set[static_cast<std::size_t>(u)]) {
        dominated = true;
        break;
      }
    if (!dominated) return "undominated vertex";
  }
  return "";
}

}  // namespace mns::congest
