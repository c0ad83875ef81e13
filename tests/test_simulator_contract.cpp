// Contract tests for the rewritten CONGEST simulator hot path: capacity
// enforcement, idle-round accounting, inbox view validity after
// finish_round, frontier (delivered_to) bookkeeping across sparse rounds —
// the invariants the buffer-reuse/counting-CSR implementation must uphold —
// the batch round end (finish_round_batch builds no inboxes and leaves the
// simulator clean), plus the engine's round-accounting contract
// (quiescence costs no rounds).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "congest/bfs.hpp"
#include "congest/simulator.hpp"
#include "congest/vertex_program.hpp"
#include "gen/basic.hpp"
#include "gen/planar.hpp"

namespace mns {
namespace {

using congest::Delivery;
using congest::Inbox;
using congest::Message;
using congest::Simulator;

TEST(SimulatorContract, CapacityViolationThrows) {
  Graph g = gen::path(3);
  Simulator sim(g);
  EdgeId e = g.find_edge(0, 1);
  sim.send(0, e, Message{});
  EXPECT_THROW(sim.send(0, e, Message{}), std::invalid_argument);
  sim.send(1, e, Message{});  // opposite direction has its own capacity
  sim.finish_round();
  sim.send(0, e, Message{});  // capacity resets each round
  EXPECT_THROW(sim.send(0, e, Message{}), std::invalid_argument);
  sim.finish_round();
  EXPECT_EQ(sim.rounds(), 2);
  EXPECT_EQ(sim.messages_sent(), 3);
}

TEST(SimulatorContract, EndpointViolationNamesVertexAndEdge) {
  // The what() string must identify WHICH send was misdirected — the `from`
  // vertex and the edge id appear verbatim, for both the sequential and the
  // staged path (debuggability contract of Simulator::send/stage_send).
  Graph g = gen::path(3);
  Simulator sim(g);
  const EdgeId e = g.find_edge(1, 2);
  const auto assert_ids_in_what = [&](const auto& call) {
    try {
      call();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& ex) {
      const std::string what = ex.what();
      EXPECT_NE(what.find("vertex 0"), std::string::npos) << what;
      EXPECT_NE(what.find("edge " + std::to_string(e)), std::string::npos)
          << what;
    }
  };
  assert_ids_in_what([&] { sim.send(0, e, Message{}); });
  assert_ids_in_what([&] { sim.stage_send(0, 0, e, Message{}); });
  // A throwing call stages nothing: the next round is clean.
  sim.finish_round();
  EXPECT_EQ(sim.messages_sent(), 0);
}

TEST(SimulatorContract, InboxOutOfRangeIsCaught) {
  // inbox(v) validates v like send() validates endpoints: indexing
  // inbox_count_ with a bogus id must throw, not read out of bounds.
  Graph g = gen::path(3);
  Simulator sim(g);
  EXPECT_THROW((void)sim.inbox(-1), std::out_of_range);
  EXPECT_THROW((void)sim.inbox(3), std::out_of_range);
  sim.send(0, g.find_edge(0, 1), Message{0, 0, 5});
  sim.finish_round();
  EXPECT_THROW((void)sim.inbox(1000), std::out_of_range);
  ASSERT_EQ(sim.inbox(1).size(), 1u);  // in-range access unaffected
  EXPECT_EQ(sim.inbox(1)[0].msg.value, 5);
  EXPECT_TRUE(sim.inbox(2).empty());
}

TEST(SimulatorContract, IdleRoundStillCounts) {
  // DESIGN.md §3: the round counter moves once per round the engine closes,
  // whether or not that round carried a message.
  Graph g = gen::path(2);
  Simulator sim(g);
  sim.send(0, 0, Message{});
  sim.finish_round();
  EXPECT_EQ(sim.rounds(), 1);
  EXPECT_EQ(sim.inbox(1).size(), 1u);
  sim.finish_round();  // nothing sent
  EXPECT_EQ(sim.rounds(), 2);
  EXPECT_EQ(sim.messages_sent(), 1);
  EXPECT_TRUE(sim.inbox(1).empty());
  EXPECT_TRUE(sim.delivered_to().empty());
}

TEST(SimulatorContract, StagedSendsMergeInShardOrder) {
  // stage_send + finish_round must reproduce the sequential send order:
  // shard 0's entries first, then shard 1's, each in staging order — so
  // inbox contents and delivered_to() are bit-identical to a sequential run
  // that sent in that same canonical order.
  Graph g = gen::star(4);  // center 0, leaves 1..4
  Simulator sim(g, congest::ExecutionPolicy{2});
  ASSERT_EQ(sim.num_shards(), 2);
  sim.stage_send(0, 1, g.find_edge(0, 1), Message{0, 0, 10});
  sim.stage_send(0, 2, g.find_edge(0, 2), Message{0, 0, 20});
  sim.stage_send(1, 3, g.find_edge(0, 3), Message{0, 0, 30});
  sim.stage_send(1, 4, g.find_edge(0, 4), Message{0, 0, 40});
  sim.finish_round();
  EXPECT_EQ(sim.messages_sent(), 4);
  Inbox in = sim.inbox(0);
  ASSERT_EQ(in.size(), 4u);
  for (VertexId i = 0; i < 4; ++i) {
    EXPECT_EQ(in[i].from, i + 1);
    EXPECT_EQ(in[i].msg.value, 10 * (i + 1));
  }
}

TEST(SimulatorContract, DirectSendsMergeBeforeStagedOnes) {
  Graph g = gen::star(2);
  Simulator sim(g, congest::ExecutionPolicy{2});
  sim.stage_send(1, 2, g.find_edge(0, 2), Message{0, 0, 2});
  sim.send(1, g.find_edge(0, 1), Message{0, 0, 1});
  sim.finish_round();
  Inbox in = sim.inbox(0);
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0].msg.value, 1);  // direct first, then shards in order
  EXPECT_EQ(in[1].msg.value, 2);
}

TEST(SimulatorContract, StagedCapacityViolationThrowsAtMerge) {
  // The capacity check for staged sends is deferred to the deterministic
  // merge (stage_send itself must not touch shared state); the violation
  // still throws, from finish_round — BEFORE the round is counted or any
  // inbox is disturbed, like sequential send()'s validate-before-mutate.
  Graph g = gen::path(2);
  Simulator sim(g, congest::ExecutionPolicy{2});
  sim.stage_send(0, 0, 0, Message{});
  sim.stage_send(1, 0, 0, Message{});  // same directed edge, other shard
  EXPECT_THROW(sim.finish_round(), std::invalid_argument);
  EXPECT_EQ(sim.rounds(), 0);
  EXPECT_EQ(sim.messages_sent(), 0);
  // The poisoned round's staged sends are discarded: the simulator stays
  // usable, and the slot is free again next round.
  sim.stage_send(0, 0, 0, Message{0, 0, 7});
  sim.finish_round();
  EXPECT_EQ(sim.rounds(), 1);
  ASSERT_EQ(sim.inbox(1).size(), 1u);
  EXPECT_EQ(sim.inbox(1)[0].msg.value, 7);
  // Direct-vs-staged collisions are caught the same way; the direct send
  // stays pending (exactly sequential send()'s behavior after a throw) and
  // is delivered by the next clean finish_round.
  Simulator sim2(g, congest::ExecutionPolicy{2});
  sim2.send(0, 0, Message{0, 0, 9});
  sim2.stage_send(0, 0, 0, Message{});
  EXPECT_THROW(sim2.finish_round(), std::invalid_argument);
  sim2.finish_round();
  EXPECT_EQ(sim2.rounds(), 1);
  ASSERT_EQ(sim2.inbox(1).size(), 1u);
  EXPECT_EQ(sim2.inbox(1)[0].msg.value, 9);
}

TEST(SimulatorContract, StagingWorksAtDefaultSingleShardPolicy) {
  // The documented staging contract — shard ids in [0, num_shards()) — must
  // hold for a default-constructed simulator too, not only after a policy
  // round-trip.
  Graph g = gen::path(2);
  Simulator sim(g);
  ASSERT_EQ(sim.num_shards(), 1);
  sim.stage_send(0, 0, 0, Message{0, 0, 5});
  sim.finish_round();
  ASSERT_EQ(sim.inbox(1).size(), 1u);
  EXPECT_EQ(sim.inbox(1)[0].msg.value, 5);
}

TEST(SimulatorContract, StageSendValidatesEagerlyWhereItCan) {
  Graph g = gen::path(3);
  Simulator sim(g, congest::ExecutionPolicy{2});
  // Endpoint validation is immediate, like send().
  EXPECT_THROW(sim.stage_send(0, 2, g.find_edge(0, 1), Message{}),
               std::invalid_argument);
  // Shard ids outside the policy's width are immediate errors too.
  EXPECT_THROW(sim.stage_send(2, 0, g.find_edge(0, 1), Message{}),
               std::out_of_range);
  EXPECT_THROW(sim.stage_send(-1, 0, g.find_edge(0, 1), Message{}),
               std::out_of_range);
}

TEST(SimulatorContract, PolicyChangeWithPendingSendsThrows) {
  Graph g = gen::path(2);
  Simulator sim(g);
  sim.send(0, 0, Message{});
  EXPECT_THROW(sim.set_execution_policy(congest::ExecutionPolicy{4}),
               std::logic_error);
  sim.finish_round();
  sim.set_execution_policy(congest::ExecutionPolicy{4});  // between rounds: ok
  EXPECT_EQ(sim.num_shards(), 4);
  sim.stage_send(3, 0, 0, Message{});
  EXPECT_THROW(sim.set_execution_policy(congest::ExecutionPolicy{1}),
               std::logic_error);
  sim.finish_round();
  sim.set_execution_policy(congest::ExecutionPolicy{1});
  EXPECT_EQ(sim.num_shards(), 1);
}

TEST(SimulatorContract, ExecutionPolicyResolution) {
  EXPECT_EQ(congest::ExecutionPolicy{1}.resolved(), 1);
  EXPECT_EQ(congest::ExecutionPolicy{6}.resolved(), 6);
  // 0 = hardware width, whatever it is — but always at least one shard.
  EXPECT_GE(congest::ExecutionPolicy{0}.resolved(), 1);
}

TEST(SimulatorContract, InboxSpanValidAfterFinishRound) {
  Graph g = gen::star(4);  // center 0, leaves 1..4
  Simulator sim(g);
  for (VertexId leaf = 1; leaf <= 4; ++leaf)
    sim.send(leaf, g.find_edge(0, leaf), Message{leaf, 0, 10 * leaf});
  sim.finish_round();
  Inbox in = sim.inbox(0);
  ASSERT_EQ(in.size(), 4u);
  // Per-destination order is send order.
  for (VertexId i = 0; i < 4; ++i) {
    EXPECT_EQ(in[i].from, i + 1);
    EXPECT_EQ(in[i].msg.value, 10 * (i + 1));
    EXPECT_EQ(in[i].edge, g.find_edge(0, i + 1));
  }
  // The span must survive further sends (which only queue) ...
  sim.send(0, g.find_edge(0, 1), Message{0, 0, 99});
  ASSERT_EQ(sim.inbox(0).size(), 4u);
  EXPECT_EQ(sim.inbox(0)[2].msg.value, 30);
  // ... and be replaced, not corrupted, by the next finish_round.
  sim.finish_round();
  EXPECT_TRUE(sim.inbox(0).empty());
  ASSERT_EQ(sim.inbox(1).size(), 1u);
  EXPECT_EQ(sim.inbox(1)[0].msg.value, 99);
}

TEST(SimulatorContract, FrontierResetsAcrossSparseRounds) {
  // Different destinations each round on a large graph: counts must never
  // leak from one round into the next (the frontier-reset invariant of the
  // O(messages) finish_round).
  Graph g = gen::cycle(1000);
  Simulator sim(g);
  for (VertexId v = 0; v < 1000; v += 100) {
    sim.send(v, g.find_edge(v, v + 1), Message{0, 0, v});
    sim.finish_round();
    // Exactly one node has mail, and it is v+1.
    ASSERT_EQ(sim.delivered_to().size(), 1u);
    EXPECT_EQ(sim.delivered_to()[0], v + 1);
    ASSERT_EQ(sim.inbox(v + 1).size(), 1u);
    EXPECT_EQ(sim.inbox(v + 1)[0].msg.value, v);
    // Last round's receiver is clean again.
    if (v > 0) {
      EXPECT_TRUE(sim.inbox(v - 100 + 1).empty());
    }
    // Spot-check nodes that never received anything.
    EXPECT_TRUE(sim.inbox(v == 0 ? 500 : 0).empty());
  }
  EXPECT_EQ(sim.rounds(), 10);
  EXPECT_EQ(sim.messages_sent(), 10);
}

TEST(SimulatorContract, DeliveredToMatchesReceivers) {
  Rng rng(5);
  Graph g = gen::random_maximal_planar(200, rng).graph();
  Simulator sim(g);
  // Even vertices broadcast to all neighbours.
  std::set<VertexId> expected;
  for (VertexId v = 0; v < g.num_vertices(); v += 2) {
    auto eids = g.incident_edges(v);
    auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < eids.size(); ++i) {
      sim.send(v, eids[i], Message{});
      expected.insert(nbrs[i]);
    }
  }
  sim.finish_round();
  std::set<VertexId> got(sim.delivered_to().begin(), sim.delivered_to().end());
  EXPECT_EQ(got.size(), sim.delivered_to().size());  // no duplicates
  EXPECT_EQ(got, expected);
  std::size_t total = 0;
  for (VertexId v : sim.delivered_to()) total += sim.inbox(v).size();
  EXPECT_EQ(total, static_cast<std::size_t>(sim.messages_sent()));
  // Empty round: frontier clears completely.
  sim.finish_round();
  EXPECT_TRUE(sim.delivered_to().empty());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_TRUE(sim.inbox(v).empty());
}

TEST(SimulatorContract, BatchRoundBuildsNoInboxes) {
  // finish_round_batch() hands back the canonical batch in send order and
  // scatters nothing: afterwards delivered_to() and every inbox are empty,
  // capacity is free again, and a program run next on the same simulator
  // behaves exactly as on a fresh one.
  Rng rng(5);
  Graph g = gen::random_maximal_planar(200, rng).graph();
  Simulator sim(g);
  // An inbox round first, so the batch round retires real inboxes too.
  for (EdgeId e : g.incident_edges(1)) sim.send(1, e, Message{0, 0, 1});
  sim.finish_round();
  ASSERT_FALSE(sim.delivered_to().empty());
  std::vector<VertexId> to;
  std::vector<std::uint32_t> slots;
  for (VertexId v = 0; v < g.num_vertices(); v += 2) {
    const auto eids = g.incident_edges(v);
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < eids.size(); ++i) {
      sim.send(v, eids[i], Message{v, eids[i], 1000 * v + eids[i]});
      to.push_back(nbrs[i]);
      slots.push_back(2 * static_cast<std::uint32_t>(eids[i]) +
                      (g.edge(eids[i]).u == v ? 0u : 1u));
    }
  }
  const congest::RoundBatch batch = sim.finish_round_batch();
  EXPECT_EQ(sim.rounds(), 2);
  EXPECT_EQ(sim.messages_sent(),
            static_cast<long long>(g.degree(1) + to.size()));
  ASSERT_EQ(batch.size(), to.size());
  for (std::size_t i = 0; i < to.size(); ++i) {
    EXPECT_EQ(batch.to[i], to[i]);
    EXPECT_EQ(batch.slot[i], slots[i]);
    const EdgeId e = static_cast<EdgeId>(slots[i] >> 1);
    const VertexId from = g.other_endpoint(e, to[i]);
    EXPECT_EQ(batch.payload[i].tag, from);
    EXPECT_EQ(batch.payload[i].aux, e);
    EXPECT_EQ(batch.payload[i].value, 1000 * from + e);
  }
  EXPECT_TRUE(sim.delivered_to().empty());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_TRUE(sim.inbox(v).empty()) << v;

  const long long rounds_before = sim.rounds();
  const long long messages_before = sim.messages_sent();
  congest::RunReport reused_report, fresh_report;
  congest::PhaseMeter reused_meter(sim, reused_report);
  const congest::BfsPayload reused =
      congest::distributed_bfs(congest::Bfs{7}, reused_meter);
  Simulator fresh_sim(g);
  congest::PhaseMeter fresh_meter(fresh_sim, fresh_report);
  const congest::BfsPayload fresh =
      congest::distributed_bfs(congest::Bfs{7}, fresh_meter);
  EXPECT_EQ(reused.dist, fresh.dist);
  EXPECT_EQ(reused.parent, fresh.parent);
  EXPECT_EQ(reused.parent_edge, fresh.parent_edge);
  EXPECT_EQ(sim.rounds() - rounds_before, fresh_sim.rounds());
  EXPECT_EQ(sim.messages_sent() - messages_before, fresh_sim.messages_sent());
}

TEST(SimulatorContract, SteadyStateBufferReuseOverManyRounds) {
  // A long ping-pong: correctness (value round-trips intact) and accounting
  // over thousands of reused rounds.
  Graph g = gen::path(2);
  Simulator sim(g);
  std::int64_t token = 42;
  for (int i = 0; i < 5000; ++i) {
    VertexId from = i % 2;
    sim.send(from, 0, Message{0, 0, token});
    sim.finish_round();
    ASSERT_EQ(sim.inbox(1 - from).size(), 1u);
    token = sim.inbox(1 - from)[0].msg.value + 1;
  }
  EXPECT_EQ(token, 42 + 5000);
  EXPECT_EQ(sim.rounds(), 5000);
  EXPECT_EQ(sim.messages_sent(), 5000);
}

// A token relay 0 -> goal expressed as a VertexProgram; the round-accounting
// tests below used to exercise the (removed) run_round_loop adapter and now
// pin the same contract on run_vertex_program: quiescence is checked BEFORE
// a round is counted, so a message-free final check costs no rounds.
struct RelayProgram {
  const Graph* g;
  VertexId goal;
  VertexId at = 0;
  std::vector<VertexId> cur{0};

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return at == goal ? std::span<const VertexId>()
                      : std::span<const VertexId>(cur);
  }
  void send(VertexId v, congest::VertexSender& out) {
    out.send(g->find_edge(v, v + 1), Message{});
  }
  void receive(VertexId v, Inbox, const congest::ShardContext&) { at = v; }
  void end_round() { cur[0] = at; }
};

TEST(RoundAccountingContract, CountsRoundsAndSkipsFinalCheck) {
  Graph g = gen::path(6);
  Simulator sim(g);
  // Relay a token 0 -> 5: five rounds, and the terminating frontier check
  // (empty) must not consume a round.
  RelayProgram prog{&g, 5};
  long long rounds = congest::run_vertex_program(sim, prog);
  EXPECT_EQ(prog.at, 5);
  EXPECT_EQ(rounds, 5);
  EXPECT_EQ(sim.rounds(), 5);
}

TEST(RoundAccountingContract, ImmediateQuiescenceCostsNothing) {
  Graph g = gen::path(2);
  Simulator sim(g);
  RelayProgram prog{&g, 0};  // frontier empty from the start
  long long rounds = congest::run_vertex_program(sim, prog);
  EXPECT_EQ(rounds, 0);
  EXPECT_EQ(sim.rounds(), 0);
  EXPECT_EQ(sim.messages_sent(), 0);
}

TEST(RoundAccountingContract, ConsecutiveProgramsAccumulateOnTheSimulator) {
  Graph g = gen::path(3);
  Simulator sim(g);
  long long total = 0;
  for (int rep = 0; rep < 3; ++rep) {
    RelayProgram prog{&g, 2};
    long long rounds = congest::run_vertex_program(sim, prog);
    EXPECT_EQ(rounds, 2);
    total += rounds;
  }
  EXPECT_EQ(total, 6);
  EXPECT_EQ(sim.rounds(), 6);
}

}  // namespace
}  // namespace mns
