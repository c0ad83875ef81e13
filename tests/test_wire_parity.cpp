// Packed-wire parity (DESIGN.md §9): the 20-byte slot/payload wire format
// must be observationally identical to the retired 24-byte Delivery records.
// A retained reference decoder re-derives (from, edge) from the raw directed
// slot `2e + side` and the graph, independently of Inbox's own decoding; a
// min-label flooding program then drives multi-round traffic on all four
// certificate families (planar, treewidth, apex, clique-sum) at widths
// 1/2/4/8 and pins rounds, messages, and the per-round inbox BYTES (raw
// slots + payloads, in delivery order) bit-identical across widths — the
// determinism contract of DESIGN.md §7 expressed against the wire itself.
//
// AggregationTrafficPinned goes one step further and pins the workloads'
// traffic to fixed digests: a watching Transport folds every round's
// canonical merged batch (destinations, slots, payloads) into FNV-1a, and
// mst, mincut, both sssp.approx seedings, LDD-sourced mst, mis, mst.ghs and
// domset must reproduce the recorded (rounds, messages, digest) on one
// instance per certificate family at widths 1 and 4. Width parity alone
// cannot catch a kernel change that reorders sends consistently at every
// width; the recorded digests can. Each pin also carries an answer digest
// (the payload a run returns), so a change meant to move traffic alone
// shows that the answers stayed put, and the run's RoundTrace stream (the
// callback count and a digest of every callback's stage, index, rounds,
// messages and charge). Only the width-1 run sets the trace hook, so every
// pin also checks a traced run against an untraced one. They depend on
// libstdc++'s std::shuffle and distributions, like bench/baselines/
// (DESIGN.md §8). The Wide* and *Aggregator* cases pin a direct
// PartwiseAggregator the same way: edges carrying more than 64 parts
// (multi-word dirty masks), reuse of one aggregator across calls, and
// recovery after a run that threw. At width 1 the aggregation flood
// consumes each round as one batch in send order, at width 4 as per-vertex
// inboxes (vertex_program.hpp), so every width-1/4 pin checks both delivery
// forms against the same digests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "congest/aggregation.hpp"
#include "congest/session.hpp"
#include "congest/simulator.hpp"
#include "congest/vertex_program.hpp"
#include "core/shortcut_engine.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "graph/algorithms.hpp"
#include "transport/transport.hpp"

namespace mns {
namespace {

using congest::Delivery;
using congest::Inbox;
using congest::Message;
using congest::Simulator;

/// The RETAINED REFERENCE DECODER: the seed semantics of a delivery record,
/// reconstructed from the packed directed slot alone. Kept deliberately
/// independent of Inbox::operator[] so the two implementations check each
/// other.
Delivery reference_decode(const Graph& g, std::uint32_t slot,
                          const Message& payload) {
  const EdgeId e = static_cast<EdgeId>(slot >> 1);
  const Edge& ed = g.edge(e);
  const VertexId sender = (slot & 1u) == 0 ? ed.u : ed.v;
  return Delivery{sender, e, payload};
}

/// FNV-1a over arbitrary bytes — the inbox digest primitive.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::int64_t mix_label(VertexId v) {
  std::uint64_t x = static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<std::int64_t>(x >> 1);  // nonnegative
}

/// Min-label flooding: every vertex starts on the frontier with a distinct
/// pseudo-random label and floods its current minimum to all neighbours;
/// improved vertices re-flood next round. Converges to the global minimum in
/// O(diameter) rounds, with an n-sized first frontier (so widths > 1 really
/// stage across shards) shrinking through the inline-grain path — both merge
/// paths are exercised in one run. end_round() digests the round's raw inbox
/// bytes and cross-checks Inbox against the reference decoder.
struct MinLabelFlood {
  const Graph* g;
  Simulator* sim;
  std::vector<std::int64_t> label;
  congest::FrontierTracker tracker;
  std::vector<std::uint64_t> round_digests;
  long long decode_mismatches = 0;

  MinLabelFlood(const Graph& graph, Simulator& s)
      : g(&graph),
        sim(&s),
        label(static_cast<std::size_t>(graph.num_vertices())),
        tracker(s.num_shards(), graph.num_vertices()) {
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      label[static_cast<std::size_t>(v)] = mix_label(v);
      tracker.seed(v);
    }
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }
  void send(VertexId v, congest::VertexSender& out) {
    for (EdgeId e : g->incident_edges(v))
      out.send(e, Message{0, static_cast<std::int32_t>(v & 0x7fff),
                          label[static_cast<std::size_t>(v)]});
  }
  void receive(VertexId v, Inbox inbox, const congest::ShardContext& ctx) {
    for (const Delivery& d : inbox) {
      if (d.msg.value < label[static_cast<std::size_t>(v)]) {
        label[static_cast<std::size_t>(v)] = d.msg.value;
        tracker.wake_from_receive(v, ctx.shard);
      }
    }
  }
  void end_round() {
    // Digest the round that just finished: receivers in delivery order, each
    // inbox's raw slot and payload bytes verbatim.
    std::uint64_t h = 14695981039346656037ULL;
    for (VertexId v : sim->delivered_to()) {
      h = fnv1a(h, &v, sizeof(v));
      const Inbox in = sim->inbox(v);
      const std::span<const std::uint32_t> slots = in.slots();
      const std::span<const Message> payloads = in.payloads();
      h = fnv1a(h, slots.data(), slots.size_bytes());
      h = fnv1a(h, payloads.data(), payloads.size_bytes());
      // Reference-decoder cross-check, delivery for delivery.
      for (std::size_t i = 0; i < in.size(); ++i) {
        const Delivery got = in[i];
        const Delivery want = reference_decode(*g, slots[i], payloads[i]);
        if (got.from != want.from || got.edge != want.edge ||
            std::memcmp(&got.msg, &want.msg, sizeof(Message)) != 0)
          ++decode_mismatches;
        // The sender must be the far endpoint of the edge relative to v.
        const Edge& ed = g->edge(want.edge);
        if (want.from != (v == ed.u ? ed.v : ed.u)) ++decode_mismatches;
      }
    }
    round_digests.push_back(h);
    tracker.end_round();
  }
};

struct FloodTrace {
  long long rounds = 0;
  long long messages = 0;
  std::vector<std::uint64_t> digests;
  std::vector<std::int64_t> labels;
};

FloodTrace run_flood(const Graph& g, int width) {
  Simulator sim(g, congest::ExecutionPolicy{width});
  MinLabelFlood prog(g, sim);
  congest::run_vertex_program(sim, prog);
  EXPECT_EQ(prog.decode_mismatches, 0)
      << "Inbox decoding disagrees with the reference decoder at width "
      << width;
  return FloodTrace{sim.rounds(), sim.messages_sent(),
                    std::move(prog.round_digests), std::move(prog.label)};
}

void expect_width_parity(const Graph& g, const char* family) {
  SCOPED_TRACE(family);
  ASSERT_GT(g.num_vertices(), static_cast<VertexId>(congest::kParallelGrain))
      << "instance too small to exercise the staged multi-shard path";
  const FloodTrace seq = run_flood(g, 1);
  // Converged: every vertex holds the global minimum (the graphs are
  // connected), so the traffic really flooded end to end.
  std::int64_t global_min = seq.labels[0];
  for (std::int64_t l : seq.labels) global_min = std::min(global_min, l);
  for (std::int64_t l : seq.labels) EXPECT_EQ(l, global_min);
  for (int width : {2, 4, 8}) {
    SCOPED_TRACE(width);
    const FloodTrace par = run_flood(g, width);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(par.messages, seq.messages);
    ASSERT_EQ(par.digests.size(), seq.digests.size());
    for (std::size_t r = 0; r < seq.digests.size(); ++r)
      EXPECT_EQ(par.digests[r], seq.digests[r])
          << "inbox bytes diverged in round " << r;
    EXPECT_EQ(par.labels, seq.labels);
  }
}

TEST(WireParity, PackedSlotEncoding) {
  // The raw wire values, pinned: slot = 2e + side, side 0 = sent by
  // edge(e).u, payload verbatim.
  Graph g = gen::path(3);
  Simulator sim(g);
  const EdgeId e01 = g.find_edge(0, 1);
  const EdgeId e12 = g.find_edge(1, 2);
  sim.send(1, e01, Message{7, 8, 9});   // 1 is edge(e01).v -> side 1
  sim.send(1, e12, Message{4, 5, 6});   // 1 is edge(e12).u -> side 0
  sim.finish_round();
  const Inbox in0 = sim.inbox(0);
  ASSERT_EQ(in0.size(), 1u);
  EXPECT_EQ(in0.slots()[0], 2u * static_cast<std::uint32_t>(e01) + 1u);
  EXPECT_EQ(in0.payloads()[0].tag, 7);
  EXPECT_EQ(in0.payloads()[0].aux, 8);
  EXPECT_EQ(in0.payloads()[0].value, 9);
  const Inbox in2 = sim.inbox(2);
  ASSERT_EQ(in2.size(), 1u);
  EXPECT_EQ(in2.slots()[0], 2u * static_cast<std::uint32_t>(e12));
  EXPECT_EQ(in2.payloads()[0].value, 6);
  // Decoded view matches the reference decoder on both.
  for (const Inbox& in : {in0, in2}) {
    const Delivery want = reference_decode(g, in.slots()[0], in.payloads()[0]);
    EXPECT_EQ(in[0].from, want.from);
    EXPECT_EQ(in[0].edge, want.edge);
    EXPECT_EQ(in[0].msg.value, want.msg.value);
  }
}

TEST(WireParity, PlanarFamily) {
  expect_width_parity(gen::grid(32, 32).graph(), "planar grid 32x32");
}

TEST(WireParity, TreewidthFamily) {
  Rng rng(7);
  expect_width_parity(gen::random_ktree(700, 3, rng).graph, "3-tree n=700");
}

TEST(WireParity, ApexFamily) {
  Rng rng(11);
  gen::ApexResult ar = gen::add_apices(gen::grid(30, 30).graph(), 2, 0.10, rng);
  expect_width_parity(ar.graph, "apexed grid 30x30+2");
}

TEST(WireParity, CliqueSumFamily) {
  Rng rng(13);
  std::vector<gen::BagInput> bags;
  for (int b = 0; b < 6; ++b) {
    Graph cell = gen::grid(10, 10).graph();
    std::vector<std::vector<VertexId>> glue =
        gen::default_glue_cliques(cell, 2);
    bags.push_back(gen::BagInput{std::move(cell), std::move(glue)});
  }
  gen::CliqueSumResult r = gen::compose_clique_sum(bags, 2, 0.0, rng);
  expect_width_parity(r.graph, "clique-sum of 6 grid bags");
}

// ------------------------------------------------- workload traffic digests

/// Watches every round's canonical merged batch and folds it into one
/// FNV-1a digest; never touches the payloads.
class DigestTransport final : public transport::Transport {
 public:
  void exchange(const transport::RoundTraffic& t) override {
    digest_ = fnv1a(digest_, &t.round, sizeof(t.round));
    digest_ = fnv1a(digest_, t.to.data(), t.to.size_bytes());
    digest_ = fnv1a(digest_, t.slot.data(), t.slot.size_bytes());
    digest_ = fnv1a(digest_, t.payload.data(), t.payload.size_bytes());
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::uint64_t digest_ = 14695981039346656037ULL;
};

struct DigestFamily {
  std::string name;
  Graph graph;
  StructuralCertificate cert;
};

/// One instance per certificate family, each large enough that the first
/// aggregation frontier exceeds kParallelGrain (width 4 really stages).
std::vector<DigestFamily> digest_families() {
  std::vector<DigestFamily> out;
  Rng rng(17);
  out.push_back({"planar", gen::grid(20, 20).graph(), greedy_certificate()});
  {
    gen::KTreeResult kt = gen::random_ktree(400, 3, rng);
    out.push_back(
        {"treewidth", kt.graph, treewidth_certificate(kt.decomposition)});
  }
  {
    gen::ApexResult ar =
        gen::add_apices(gen::grid(18, 18).graph(), 1, 0.2, rng);
    out.push_back({"apex", ar.graph, apex_certificate(ar.apices)});
  }
  {
    Graph bag = gen::triangulated_grid(10, 10).graph();
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < 4; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
    gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
    out.push_back(
        {"cliquesum", cs.graph, cliquesum_certificate(cs.decomposition)});
  }
  return out;
}

struct TrafficPin {
  const char* family;
  const char* run;
  long long rounds;
  long long messages;
  std::uint64_t digest;
  std::uint64_t answer;  ///< answer_digest of the report
  int traces;            ///< RoundTrace callbacks of the traced run
  std::uint64_t trace;   ///< TraceDigest over those callbacks
};

/// Folds every RoundTrace callback of a run into FNV-1a.
struct TraceDigest {
  int count = 0;
  std::uint64_t digest = 14695981039346656037ULL;

  [[nodiscard]] congest::RoundTraceHook hook() {
    return [this](const congest::RoundTrace& t) {
      ++count;
      digest = fnv1a(digest, t.stage, std::strlen(t.stage) + 1);
      digest = fnv1a(digest, &t.index, sizeof(t.index));
      digest = fnv1a(digest, &t.rounds, sizeof(t.rounds));
      digest = fnv1a(digest, &t.messages, sizeof(t.messages));
      digest = fnv1a(digest, &t.charged_rounds, sizeof(t.charged_rounds));
    };
  }
};

/// FNV-1a over a vector's element bytes; T must have no padding.
template <typename T>
std::uint64_t fold(std::uint64_t h, const std::vector<T>& xs) {
  return fnv1a(h, xs.data(), xs.size() * sizeof(T));
}

/// FNV-1a over what a run answered, not what it cost: MST edges and
/// fragments, min-cut value and trees, SSSP distances (not `jumps`, which
/// the burst budget may move), MIS and dominating-set membership.
std::uint64_t answer_digest(const congest::RunReport& r) {
  std::uint64_t h = 14695981039346656037ULL;
  if (const auto* p = std::get_if<congest::MstPayload>(&r.payload)) {
    h = fold(h, p->edges);
    h = fold(h, p->fragment_of);
  } else if (const auto* p = std::get_if<congest::MinCutPayload>(&r.payload)) {
    h = fnv1a(h, &p->value, sizeof(p->value));
    h = fnv1a(h, &p->trees, sizeof(p->trees));
  } else if (const auto* p = std::get_if<congest::SsspPayload>(&r.payload)) {
    h = fold(h, p->dist);
  } else if (const auto* p = std::get_if<congest::MisPayload>(&r.payload)) {
    h = fold(h, p->in_mis);
  } else if (const auto* p = std::get_if<congest::DomsetPayload>(&r.payload)) {
    h = fold(h, p->in_set);
  } else {
    ADD_FAILURE() << "no answer digest for workload " << r.workload;
  }
  return h;
}

/// Part minima field by field (AggValue has padding).
std::uint64_t answer_digest(const std::vector<congest::AggValue>& mins) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const congest::AggValue& x : mins) {
    h = fnv1a(h, &x.value, sizeof(x.value));
    h = fnv1a(h, &x.aux, sizeof(x.aux));
  }
  return h;
}

/// Recorded from the no-echo kernels: an aggregation improvement never
/// re-dirties the bit back toward its sender, and Bellman-Ford never sends
/// back over the edge that last relaxed a vertex (DESIGN.md §9). Those
/// rules moved rounds, messages and digests; the answer digests were
/// recorded on the kernels before them and did not move. The two trace
/// columns, and the mst.ghs and domset rows, were recorded while each
/// workload still wrote its own trace block, before one phase meter took
/// over the run accounting (DESIGN.md §5). The two cliquesum sssp.approx
/// rows' rounds, messages and wire and trace digests were re-recorded when
/// cluster jumps began flooding only the members below their part's last
/// minimum; their answer digests did not move. All eight sssp.approx rows'
/// rounds, messages and wire and trace digests were re-recorded again when
/// only cell minima began seeding a jump, a converged burst began ending
/// the run and stride cells began being built once per run (so the stride
/// rows trace one phase, not two); their answer digests did not move.
constexpr TrafficPin kTrafficPins[] = {
    {"planar", "mst", 236, 47681, 0x8e07885410131f72ULL,
     0x1805ddf9bcae40deULL, 5, 0x56b31ae38d04ed31ULL},
    {"planar", "mincut4", 837, 215093, 0x1245967583be44d3ULL,
     0xaefe42a14956d73ULL, 4, 0x37563c29ad546a8dULL},
    {"planar", "sssp.wavefront", 55, 4933, 0x586d925903ead029ULL,
     0x4120ca4ad42c0a68ULL, 2, 0x9d218d115e1832feULL},
    {"planar", "sssp.stride", 55, 5483, 0x3c0ffb74049d3d07ULL,
     0x4120ca4ad42c0a68ULL, 1, 0x25ae25ec29ae7434ULL},
    {"planar", "mst.ldd", 773, 146491, 0xb5730984a42594f4ULL,
     0x1805ddf9bcae40deULL, 5, 0x504e9df6df35e34aULL},
    {"planar", "mis", 6, 2803, 0xa9750ecc7a5685c5ULL,
     0x9f5d2de2657fa37dULL, 3, 0x10e4a473e7954800ULL},
    {"planar", "mst.ghs", 165, 25352, 0x5555c8db575136fdULL,
     0x1805ddf9bcae40deULL, 5, 0x980352751afab702ULL},
    {"planar", "domset", 117, 40643, 0xa1671989af1b8cc7ULL,
     0x5c6fdec80e14ebb6ULL, 20, 0x1a7aa433cc3810a8ULL},
    {"treewidth", "mst", 44, 29028, 0x75de8bc71fa43139ULL,
     0x7bc0431cbe649a3aULL, 3, 0x2d838859b19371c9ULL},
    {"treewidth", "mincut4", 103, 84473, 0xdf893ecac864bbc6ULL,
     0x9f2dfd952aecfacULL, 4, 0xad029f0724cdc3e3ULL},
    {"treewidth", "sssp.wavefront", 16, 6440, 0x653c73b0f6e3de38ULL,
     0xcdd99dbe4a6b7cb5ULL, 2, 0x6016e3262de4f4bULL},
    {"treewidth", "sssp.stride", 17, 6543, 0x6a1e58fcf2891cdfULL,
     0xcdd99dbe4a6b7cb5ULL, 1, 0x4539b7dd2acc0e9ULL},
    {"treewidth", "mst.ldd", 199, 76562, 0x2a4d61e207093051ULL,
     0x7bc0431cbe649a3aULL, 3, 0xfaefd2d96441f954ULL},
    {"treewidth", "mis", 6, 4437, 0x44251331878ee7c5ULL,
     0x6504c5ebb5db0d55ULL, 3, 0xefbd9eda1fff72caULL},
    {"treewidth", "mst.ghs", 24, 21710, 0xa757108d87de7ad0ULL,
     0x7bc0431cbe649a3aULL, 3, 0xbda9bfb81ef16318ULL},
    {"treewidth", "domset", 91, 56836, 0x65b09eb57e6408b6ULL,
     0xa8d03d16c51390dcULL, 22, 0x3b45f259d34266f4ULL},
    {"apex", "mst", 65, 22555, 0xb9803e4197a8c78aULL,
     0x32eeabca92f31537ULL, 4, 0xa553173b29adc9abULL},
    {"apex", "mincut4", 230, 91996, 0xc64455ed86fe46e1ULL,
     0x667f59a01023f54aULL, 4, 0xcb5cbb24f3f78a7fULL},
    {"apex", "sssp.wavefront", 22, 2674, 0x73f1875170cb0d36ULL,
     0xa5c3d8aa44fd47f5ULL, 2, 0x25270b24c1bb93c2ULL},
    {"apex", "sssp.stride", 24, 3184, 0xb449709077dc824dULL,
     0xa5c3d8aa44fd47f5ULL, 1, 0x5970608ceaf9cb81ULL},
    {"apex", "mst.ldd", 586, 193618, 0x5e7eb1f367f2736fULL,
     0x32eeabca92f31537ULL, 4, 0xa78c48c98e03a16fULL},
    {"apex", "mis", 6, 2447, 0xaaf6d159cbaf109eULL,
     0xb9e32b8f3d3a1777ULL, 3, 0x6e57c4d9e913dd69ULL},
    {"apex", "mst.ghs", 55, 17276, 0xc20de479a7fd081eULL,
     0x32eeabca92f31537ULL, 4, 0xbf0b5ffe74c271f7ULL},
    {"apex", "domset", 77, 29921, 0xd0bc0262c12056eeULL,
     0xcd4a39abbd44e71eULL, 18, 0x526a38d4779daa14ULL},
    {"cliquesum", "mst", 178, 48622, 0xc04f24d402512696ULL,
     0x9fe5409e7e07b784ULL, 5, 0x16fdc53f8294b9f0ULL},
    {"cliquesum", "mincut4", 645, 189950, 0x480da2afa3fc2d91ULL,
     0xcc22b3e354e40549ULL, 4, 0xdc48b71ca3dda21fULL},
    {"cliquesum", "sssp.wavefront", 63, 10641, 0xb80bfd4840bbd912ULL,
     0xada74947c21dba81ULL, 2, 0x81d7ea49e2b7a846ULL},
    {"cliquesum", "sssp.stride", 67, 12315, 0xefced425969908acULL,
     0xada74947c21dba81ULL, 1, 0x34b97aca1fd02eb6ULL},
    {"cliquesum", "mst.ldd", 567, 140521, 0x81d458fe8d0cc280ULL,
     0x9fe5409e7e07b784ULL, 5, 0xc979280e4ad08afULL},
    {"cliquesum", "mis", 6, 4069, 0xbcdd6f9e694a7910ULL,
     0xa65c55cc3bcb9d0fULL, 3, 0x795cc447c2184240ULL},
    {"cliquesum", "mst.ghs", 115, 27827, 0x59a78077c013db1ULL,
     0x9fe5409e7e07b784ULL, 5, 0x62bf7743ea29b994ULL},
    {"cliquesum", "domset", 58, 26817, 0x2a6a1c6f0dde8709ULL,
     0x68e074464a2ba6c1ULL, 10, 0xb0b4ba3d1a910d23ULL},
};

const TrafficPin* find_pin(const std::string& family, const std::string& run) {
  for (const TrafficPin& p : kTrafficPins)
    if (family == p.family && run == p.run) return &p;
  return nullptr;
}

TEST(WireParity, AggregationTrafficPinned) {
  const char* runs[] = {"mst",     "mincut4", "sssp.wavefront", "sssp.stride",
                        "mst.ldd", "mis",     "mst.ghs",        "domset"};
  for (const DigestFamily& fam : digest_families()) {
    ASSERT_GT(fam.graph.num_vertices(),
              static_cast<VertexId>(congest::kParallelGrain));
    Rng wrng(29);
    const std::vector<Weight> w = gen::unique_random_weights(fam.graph, wrng);
    const VertexId source = fam.graph.num_vertices() / 3;
    for (const std::string run : runs) {
      for (int width : {1, 4}) {
        SCOPED_TRACE(fam.name + " " + run + " width " + std::to_string(width));
        congest::Session session(fam.graph, fam.cert);
        DigestTransport wire;
        session.set_transport(&wire);
        congest::SolveOptions opt;
        opt.threads = width;
        TraceDigest trace;
        if (width == 1) opt.trace = trace.hook();
        congest::RunReport r;
        if (run == "mst") {
          r = session.solve(congest::Mst{w}, opt);
        } else if (run == "mincut4") {
          r = session.solve(congest::MinCut{w, 4}, opt);
        } else if (run == "sssp.wavefront" || run == "sssp.stride") {
          congest::ApproxSssp q{w, source};
          q.wavefront_seeds = run == "sssp.wavefront";
          r = session.solve(q, opt);
        } else if (run == "mst.ldd") {
          opt.partition = congest::PartitionSource::kLdd;
          r = session.solve(congest::Mst{w}, opt);
        } else if (run == "mis") {
          r = session.solve(congest::Mis{7}, opt);
        } else if (run == "mst.ghs") {
          r = session.solve(congest::GhsMst{w}, opt);
        } else {
          r = session.solve(congest::DominatingSet{}, opt);
        }
        const TrafficPin* pin = find_pin(fam.name, run);
        if (pin == nullptr) {
          ADD_FAILURE() << "no pin; measured {\"" << fam.name << "\", \""
                        << run << "\", " << r.rounds << ", " << r.messages
                        << ", 0x" << std::hex << wire.digest() << "ULL, 0x"
                        << answer_digest(r) << "ULL, " << std::dec
                        << trace.count << ", 0x" << std::hex << trace.digest
                        << "ULL},";
          continue;
        }
        EXPECT_EQ(r.rounds, pin->rounds);
        EXPECT_EQ(r.messages, pin->messages);
        EXPECT_EQ(wire.digest(), pin->digest)
            << "traffic bytes diverged from the recorded digest";
        EXPECT_EQ(answer_digest(r), pin->answer)
            << "the answer diverged from the recorded one";
        if (width == 1) {
          EXPECT_EQ(trace.count, pin->traces);
          EXPECT_EQ(trace.digest, pin->trace)
              << "the RoundTrace stream diverged from the recorded one";
        }
      }
    }
  }
}

// ---------------------------------------------- direct aggregator runs

struct AggregationCase {
  Graph g;
  Partition parts;
  Shortcut sc;
};

/// A wheel whose 75 ring sectors all claim the whole BFS tree: every spoke
/// carries 75 parts, so each of its directed slots spans two dirty words and
/// the round-robin cursor crosses a word boundary.
AggregationCase wide_case() {
  const VertexId n = 302;
  Graph g = gen::wheel(n);
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Partition parts = ring_sectors(n, 1, n - 1, 75);
  Shortcut sc;
  sc.edges_of_part.resize(static_cast<std::size_t>(parts.num_parts()));
  for (std::vector<EdgeId>& es : sc.edges_of_part)
    for (VertexId v = 1; v < n; ++v) es.push_back(t.parent_edge(v));
  return {std::move(g), std::move(parts), std::move(sc)};
}

/// A 20x20 grid in 20 Voronoi cells over its greedy shortcut.
AggregationCase grid_case() {
  Graph g = gen::grid(20, 20).graph();
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Rng rng(3);
  Partition parts = voronoi_partition(g, 20, rng);
  Shortcut sc = ShortcutEngine::global().build_shortcut(g, t, parts,
                                                        greedy_certificate());
  return {std::move(g), std::move(parts), std::move(sc)};
}

std::vector<congest::AggValue> salted_values(VertexId n, std::uint64_t salt) {
  std::vector<congest::AggValue> init(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v)
    init[static_cast<std::size_t>(v)] = {
        mix_label(static_cast<VertexId>(v ^ static_cast<VertexId>(salt))), v};
  return init;
}

struct AggregationRun {
  long long rounds = 0;
  long long messages = 0;
  std::uint64_t digest = 0;
  std::vector<congest::AggValue> min_of_part;
  bool operator==(const AggregationRun&) const = default;
};

AggregationRun run_aggregation(congest::PartwiseAggregator& agg,
                               const Graph& g,
                               const std::vector<congest::AggValue>& init,
                               int width) {
  DigestTransport wire;  // outlives the simulator it is installed on
  Simulator sim(g, congest::ExecutionPolicy{width});
  sim.set_transport(&wire);
  congest::AggregationResult res = agg.aggregate_min(sim, init);
  return {res.rounds, sim.messages_sent(), wire.digest(),
          std::move(res.min_of_part)};
}

TEST(WireParity, WideAggregationTrafficPinned) {
  // Recorded like kTrafficPins.
  const AggregationCase c = wide_case();
  const std::vector<congest::AggValue> init =
      salted_values(c.g.num_vertices(), 0);
  for (int width : {1, 4}) {
    SCOPED_TRACE(width);
    congest::PartwiseAggregator agg(c.g, c.parts, c.sc);
    const AggregationRun r = run_aggregation(agg, c.g, init, width);
    EXPECT_EQ(r.rounds, 76);
    EXPECT_EQ(r.messages, 23800);
    EXPECT_EQ(r.digest, 0x4bf993b6c53065cdULL);
    EXPECT_EQ(answer_digest(r.min_of_part), 0x2df40ddf37cd97c5ULL);
  }
}

TEST(WireParity, ReusedAggregatorMatchesAFreshOne) {
  // sssp.approx's jumps and mincut's per-tree pass call aggregate_min on
  // one aggregator again and again: every call must send exactly what a
  // fresh aggregator sends for the same input.
  // The first input leaves two thirds of the parts without a value, so
  // their bits are never sent and the cursors end that run mid-cycle.
  for (const AggregationCase& c : {wide_case(), grid_case()}) {
    std::vector<congest::AggValue> partial =
        salted_values(c.g.num_vertices(), 1);
    for (VertexId v = 0; v < c.g.num_vertices(); ++v)
      if (c.parts.part_of(v) % 3 != 0)
        partial[static_cast<std::size_t>(v)] = {
            std::numeric_limits<std::int64_t>::max(),
            std::numeric_limits<std::int32_t>::max()};
    const std::vector<std::vector<congest::AggValue>> inputs = {
        partial, salted_values(c.g.num_vertices(), 2),
        salted_values(c.g.num_vertices(), 3)};
    for (int width : {1, 4}) {
      SCOPED_TRACE(width);
      congest::PartwiseAggregator reused(c.g, c.parts, c.sc);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        congest::PartwiseAggregator fresh(c.g, c.parts, c.sc);
        EXPECT_EQ(run_aggregation(reused, c.g, inputs[i], width),
                  run_aggregation(fresh, c.g, inputs[i], width))
            << "input " << i;
      }
    }
  }
}

/// Lets `rounds` rounds through, then fails the next barrier.
class FailingTransport final : public transport::Transport {
 public:
  explicit FailingTransport(long long rounds) : rounds_(rounds) {}
  void exchange(const transport::RoundTraffic& t) override {
    if (t.round > rounds_) throw transport::TransportError("link down");
  }

 private:
  long long rounds_;
};

TEST(WireParity, AggregatorRecoversFromARunThatThrew) {
  // A run cut off mid-flood leaves dirty bits, cursors and active lists
  // behind; the next call must not see any of them.
  const AggregationCase c = wide_case();
  const std::vector<congest::AggValue> init =
      salted_values(c.g.num_vertices(), 5);
  for (int width : {1, 4}) {
    SCOPED_TRACE(width);
    congest::PartwiseAggregator agg(c.g, c.parts, c.sc);
    {
      FailingTransport cut(3);
      Simulator sim(c.g, congest::ExecutionPolicy{width});
      sim.set_transport(&cut);
      EXPECT_THROW((void)agg.aggregate_min(sim, init),
                   transport::TransportError);
    }
    congest::PartwiseAggregator fresh(c.g, c.parts, c.sc);
    EXPECT_EQ(run_aggregation(agg, c.g, init, width),
              run_aggregation(fresh, c.g, init, width));
  }
}

/// Digests every round like DigestTransport, but numbers rounds from its
/// own first exchange, so a run on a reused simulator digests like one on a
/// fresh simulator. With `tamper_round` set it rewrites the tag of that
/// round's first payload, as a corrupt link would.
class RelativeDigestTransport final : public transport::Transport {
 public:
  explicit RelativeDigestTransport(long long tamper_round = 0)
      : tamper_round_(tamper_round) {}
  void exchange(const transport::RoundTraffic& t) override {
    if (first_round_ == 0) first_round_ = t.round;
    const long long round = t.round - first_round_ + 1;
    if (round == tamper_round_ && t.size() > 0) ++t.payload[0].tag;
    digest_ = fnv1a(digest_, &round, sizeof(round));
    digest_ = fnv1a(digest_, t.to.data(), t.to.size_bytes());
    digest_ = fnv1a(digest_, t.slot.data(), t.slot.size_bytes());
    digest_ = fnv1a(digest_, t.payload.data(), t.payload.size_bytes());
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  long long tamper_round_;
  long long first_round_ = 0;
  std::uint64_t digest_ = 14695981039346656037ULL;
};

/// One aggregate_min on `sim` as it stands; messages counted from the call.
AggregationRun run_on(congest::PartwiseAggregator& agg, Simulator& sim,
                      const std::vector<congest::AggValue>& init) {
  RelativeDigestTransport wire;
  sim.set_transport(&wire);
  const long long messages_before = sim.messages_sent();
  congest::AggregationResult res = agg.aggregate_min(sim, init);
  sim.set_transport(nullptr);
  return {res.rounds, sim.messages_sent() - messages_before, wire.digest(),
          std::move(res.min_of_part)};
}

TEST(WireParity, AggregatorThrowMidFloodLeavesSimulatorUsable) {
  // A corrupted tag makes aggregate_min throw while it absorbs round 2 —
  // from the batch form at width 1, from the inbox form at width 4. The
  // round had already ended, so the simulator must stay usable: the next
  // clean run on it, with the same aggregator, matches a fresh simulator.
  const AggregationCase c = wide_case();
  const std::vector<congest::AggValue> init =
      salted_values(c.g.num_vertices(), 7);
  for (int width : {1, 4}) {
    SCOPED_TRACE(width);
    congest::PartwiseAggregator agg(c.g, c.parts, c.sc);
    Simulator sim(c.g, congest::ExecutionPolicy{width});
    {
      RelativeDigestTransport corrupt(2);
      sim.set_transport(&corrupt);
      EXPECT_THROW((void)agg.aggregate_min(sim, init), InvariantViolation);
      sim.set_transport(nullptr);
    }
    EXPECT_EQ(sim.rounds(), 2);
    congest::PartwiseAggregator fresh_agg(c.g, c.parts, c.sc);
    Simulator fresh(c.g, congest::ExecutionPolicy{width});
    EXPECT_EQ(run_on(agg, sim, init), run_on(fresh_agg, fresh, init));
  }
}

}  // namespace
}  // namespace mns
