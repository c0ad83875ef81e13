// Transport-seam contract tests (DESIGN.md §11 "Transport layer").
//
// The acceptance bar: running the CONGEST workloads over REAL sockets — two
// ranks exchanging cut-edge records via seq/ack/retransmit UDP delivery —
// must produce RunReports bit-identical (io::run_reports_identical) to the
// single-process reference, on every certificate family, for mst and
// sssp.approx, including under seeded drop/dup/reorder fault injection.
// Clean rounds must cost one datagram per peer. The error paths are driven
// too: forged datagrams, replicas whose batches disagree, a silent peer, a
// rank lost mid-run and a cluster wider than the one-byte rank field.
//
// Each loopback rank runs on its own thread (exchange() blocks on peer
// fences); the `parallel` ctest label puts this file in the TSan job, so
// the transport's cross-thread behavior — all sharing goes through the
// kernel's UDP sockets, nothing through memory — runs under a race
// detector too.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "congest/session.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "graph/algorithms.hpp"
#include "io/report_json.hpp"
#include "serve/query_server.hpp"
#include "transport/loopback.hpp"

namespace mns {
namespace {

using congest::RunReport;
using congest::Session;
using congest::SolveOptions;
using congest::WorkloadParams;
using transport::FaultConfig;
using transport::InProcessTransport;
using transport::SocketTransport;
using transport::SocketTransportConfig;
using transport::TransportStats;

struct FamilyCase {
  std::string name;
  Graph graph;
  StructuralCertificate cert;
};

// One instance per certificate family, sized so mst runs several
// shortcut-backed phases and sssp.approx (from params_for's source) outlasts
// its first Bellman-Ford burst and jumps, without making the
// fault-injection matrix slow. A run that converges inside the first burst
// ends there, too short for the seeded adversary to fire on every rank.
std::vector<FamilyCase> transport_families() {
  std::vector<FamilyCase> out;
  Rng rng(41);
  out.push_back({"grid", gen::grid(7, 7).graph(), greedy_certificate()});
  {
    gen::KTreeResult kt = gen::random_ktree(200, 3, rng);
    out.push_back(
        {"ktree3", kt.graph, treewidth_certificate(kt.decomposition)});
  }
  {
    gen::ApexResult ar = gen::add_apices(gen::grid(6, 6).graph(), 1, 0.2, rng);
    out.push_back({"grid+apex", ar.graph, apex_certificate(ar.apices)});
  }
  {
    Graph bag = gen::triangulated_grid(3, 3).graph();
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < 10; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
    gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
    out.push_back(
        {"cliquesum", cs.graph, cliquesum_certificate(cs.decomposition)});
  }
  return out;
}

/// Random weights, and an SSSP source as many hops from vertex 0 as any
/// vertex is: a far source keeps sssp.approx's Bellman-Ford going.
WorkloadParams params_for(const Graph& g, Rng& wrng) {
  WorkloadParams p;
  p.weights = gen::unique_random_weights(g, wrng);
  const std::vector<int> hops = bfs(g, 0).dist;
  p.source = static_cast<VertexId>(
      std::max_element(hops.begin(), hops.end()) - hops.begin());
  return p;
}

RunReport reference_solve(const FamilyCase& fam, const std::string& workload,
                          const WorkloadParams& params) {
  Session session(fam.graph, fam.cert);
  return session.solve(workload, params, SolveOptions{});
}

/// Runs `workload` on the lock-step replicas of `cluster` (one thread per
/// rank) and returns every rank's report. Exceptions inside a rank thread
/// surface as test failures via `errors`.
std::vector<RunReport> solve_on_cluster(
    const FamilyCase& fam, const std::string& workload,
    const WorkloadParams& params,
    std::vector<std::unique_ptr<SocketTransport>>& cluster,
    std::vector<TransportStats>* stats_out = nullptr) {
  const int ranks = static_cast<int>(cluster.size());
  std::vector<RunReport> reports(static_cast<std::size_t>(ranks));
  std::vector<std::string> errors(static_cast<std::size_t>(ranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Session session(fam.graph, fam.cert);
        session.set_transport(cluster[static_cast<std::size_t>(r)].get());
        reports[static_cast<std::size_t>(r)] =
            session.solve(workload, params, SolveOptions{});
        session.set_transport(nullptr);
        cluster[static_cast<std::size_t>(r)]->shutdown();
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int r = 0; r < ranks; ++r)
    EXPECT_TRUE(errors[static_cast<std::size_t>(r)].empty())
        << "rank " << r << ": " << errors[static_cast<std::size_t>(r)];
  if (stats_out != nullptr) {
    stats_out->clear();
    for (int r = 0; r < ranks; ++r)
      stats_out->push_back(cluster[static_cast<std::size_t>(r)]->stats());
  }
  return reports;
}

/// solve_on_cluster over a fresh loopback cluster of `ranks`.
std::vector<RunReport> distributed_solve(
    const FamilyCase& fam, const std::string& workload,
    const WorkloadParams& params, int ranks, const FaultConfig& faults,
    std::vector<TransportStats>* stats_out = nullptr) {
  auto cluster = transport::make_loopback_cluster(fam.graph, ranks,
                                                  SocketTransportConfig{},
                                                  faults);
  return solve_on_cluster(fam, workload, params, cluster, stats_out);
}

// ------------------------------------------------------------- in-process --

TEST(TransportInProcess, InstalledTransportIsByteIdenticalToNone) {
  for (FamilyCase& fam : transport_families()) {
    SCOPED_TRACE(fam.name);
    Rng wrng(43);
    WorkloadParams params = params_for(fam.graph, wrng);
    for (const char* workload : {"mst", "sssp.approx"}) {
      SCOPED_TRACE(workload);
      RunReport ref = reference_solve(fam, workload, params);

      Session session(fam.graph, fam.cert);
      InProcessTransport transport;
      session.set_transport(&transport);
      RunReport got = session.solve(workload, params, SolveOptions{});
      EXPECT_TRUE(io::run_reports_identical(got, ref))
          << io::run_report_to_json(got) << "\n"
          << io::run_report_to_json(ref);
      // Every finish_round() of the solve went through the seam.
      EXPECT_GT(transport.stats().rounds_exchanged, 0);
    }
  }
}

// -------------------------------------------------------- loopback parity --

TEST(TransportParity, TwoSocketRanksBitIdenticalOnEveryFamily) {
  for (FamilyCase& fam : transport_families()) {
    SCOPED_TRACE(fam.name);
    Rng wrng(43);
    WorkloadParams params = params_for(fam.graph, wrng);
    for (const char* workload : {"mst", "sssp.approx"}) {
      SCOPED_TRACE(workload);
      RunReport ref = reference_solve(fam, workload, params);
      std::vector<TransportStats> stats;
      std::vector<RunReport> reports =
          distributed_solve(fam, workload, params, 2, FaultConfig{}, &stats);
      for (std::size_t r = 0; r < reports.size(); ++r) {
        EXPECT_TRUE(io::run_reports_identical(reports[r], ref))
            << "rank " << r << " diverged:\n"
            << io::run_report_to_json(reports[r]) << "\n"
            << io::run_report_to_json(ref);
      }
      // The network was load-bearing: deterministic transport counters
      // agree across ranks and real cut-edge records flowed.
      ASSERT_EQ(stats.size(), 2u);
      EXPECT_EQ(stats[0].rounds_exchanged, stats[1].rounds_exchanged);
      EXPECT_GT(stats[0].rounds_exchanged, 0);
      EXPECT_GT(stats[0].wire_records + stats[1].wire_records, 0);
      for (std::size_t r = 0; r < stats.size(); ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        const TransportStats& st = stats[r];
        // One datagram per peer per round on clean links: the fence rides
        // on the round's last DATA packet, so only rounds that overflow a
        // 64-record packet send more than one...
        EXPECT_LE(st.datagrams_sent - st.acks_sent - st.retransmits,
                  st.rounds_exchanged * (2 - 1) + (st.wire_records + 63) / 64);
        // ...and ACKs ride on those packets: a standalone ACK only answers
        // a duplicate, and on clean links every duplicate is one of the
        // peer's retransmits.
        EXPECT_LE(st.acks_sent, stats[1 - r].retransmits);
        EXPECT_EQ(st.datagrams_rejected, 0);
      }
    }
  }
}

TEST(TransportParity, FourSocketRanksBitIdenticalOnGrid) {
  FamilyCase fam{"grid", gen::grid(7, 7).graph(), greedy_certificate()};
  Rng wrng(43);
  WorkloadParams params = params_for(fam.graph, wrng);
  for (const char* workload : {"mst", "sssp.approx"}) {
    SCOPED_TRACE(workload);
    RunReport ref = reference_solve(fam, workload, params);
    std::vector<RunReport> reports =
        distributed_solve(fam, workload, params, 4, FaultConfig{});
    for (std::size_t r = 0; r < reports.size(); ++r)
      EXPECT_TRUE(io::run_reports_identical(reports[r], ref)) << "rank " << r;
  }
}

// -------------------------------------------------------- fault injection --

TEST(TransportFaults, SeededDropDupReorderConvergesToIdenticalReports) {
  FaultConfig faults;
  faults.seed = 99;
  faults.drop_rate = 0.15;  // >= the 10% the acceptance criteria demand
  faults.dup_rate = 0.05;
  faults.reorder_rate = 0.05;
  for (FamilyCase& fam : transport_families()) {
    SCOPED_TRACE(fam.name);
    Rng wrng(43);
    WorkloadParams params = params_for(fam.graph, wrng);
    for (const char* workload : {"mst", "sssp.approx"}) {
      SCOPED_TRACE(workload);
      RunReport ref = reference_solve(fam, workload, params);
      // The faulted sssp.approx leg covers cluster jumps.
      if (ref.workload == "sssp.approx") {
        EXPECT_GE(ref.sssp().jumps, 1);
      }
      std::vector<TransportStats> stats;
      std::vector<RunReport> reports =
          distributed_solve(fam, workload, params, 2, faults, &stats);
      for (std::size_t r = 0; r < reports.size(); ++r)
        EXPECT_TRUE(io::run_reports_identical(reports[r], ref))
            << "rank " << r << " diverged under faults:\n"
            << io::run_report_to_json(reports[r]) << "\n"
            << io::run_report_to_json(ref);
      for (std::size_t r = 0; r < stats.size(); ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        const TransportStats& st = stats[r];
        // The adversary actually fired...
        EXPECT_GT(st.faults_dropped, 0);
        // ...every lost reliable packet was recovered by retransmission...
        EXPECT_GT(st.retransmits, 0);
        // ...and recovery stayed bounded: a fixed allowance per injected
        // fault (each drop/hold needs ~1 retransmit, backoff may add a
        // few), not a retransmit storm.
        EXPECT_LE(st.retransmits,
                  100 + 10 * (st.faults_dropped + st.faults_held +
                              st.faults_duplicated));
      }
    }
  }
}

TEST(TransportFaults, PerRankSeedIsTheDocumentedDerivation) {
  // DESIGN.md §11: seed ^ 0x9e3779b97f4a7c15 * (rank + 1), forced nonzero.
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
  EXPECT_EQ(transport::fault_seed_for_rank(42, 0), 42 ^ kGolden);
  EXPECT_EQ(transport::fault_seed_for_rank(42, 2), 42 ^ (3 * kGolden));
  EXPECT_EQ(transport::fault_seed_for_rank(kGolden, 0), 1u);
}

// ------------------------------------------------- untrusted datagrams --

/// Decorates rank 0's datagram layer: every other receive() serves a forged
/// datagram ahead of the real traffic, `far_future` DATA packets from rank 1
/// whose sequence number lies far past any receive window, then `per_kind`
/// each of four other malformed kinds. Wire layout per DESIGN.md §11.
class ForgingTransport final : public transport::DatagramTransport {
 public:
  ForgingTransport(std::unique_ptr<transport::DatagramTransport> inner,
                   int far_future, int per_kind)
      : inner_(std::move(inner)), far_future_(far_future),
        per_kind_(per_kind) {}

  void send(int to_rank, std::span<const std::uint8_t> datagram) override {
    inner_->send(to_rank, datagram);
  }

  bool receive(std::vector<std::uint8_t>& out, int timeout_ms) override {
    if (forged_ < total() && calls_++ % 2 == 0) {
      forge(out);
      ++forged_;
      return true;
    }
    return inner_->receive(out, timeout_ms);
  }

  [[nodiscard]] int total() const { return far_future_ + 4 * per_kind_; }

 private:
  static void put(std::vector<std::uint8_t>& out, std::size_t at,
                  std::uint64_t x, int bytes) {
    for (int b = 0; b < bytes; ++b)
      out[at + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(x >> (8 * b));
  }

  void forge(std::vector<std::uint8_t>& out) const {
    // A valid-looking 32-byte header: magic "MNS2", DATA, from rank 1, no
    // records, seq, ack 0, round 1.
    out.assign(32, 0);
    put(out, 0, 0x324e534d, 4);
    out[4] = 1;
    out[5] = 1;
    put(out, 8, std::uint64_t{1} << 40, 8);
    put(out, 24, 1, 8);
    if (forged_ < far_future_) return;
    switch ((forged_ - far_future_) % 4) {
      case 0: out.resize(3); break;                    // short
      case 1: put(out, 0, 0x314e534d, 4); break;       // old "MNS1" magic
      case 2: out[5] = 0; put(out, 8, 1, 8); break;    // own rank
      default: put(out, 8, 1, 8); put(out, 16, std::uint64_t{1} << 40, 8);
    }                                                  // ACK of unsent seq
  }

  std::unique_ptr<transport::DatagramTransport> inner_;
  int far_future_;
  int per_kind_;
  int forged_ = 0;
  long long calls_ = 0;
};

TEST(TransportUntrusted, ForgedDatagramsAreRejectedAndCounted) {
  FamilyCase fam{"grid", gen::grid(7, 7).graph(), greedy_certificate()};
  Rng wrng(43);
  WorkloadParams params = params_for(fam.graph, wrng);
  RunReport ref = reference_solve(fam, "mst", params);

  std::vector<std::unique_ptr<transport::UdpTransport>> sockets;
  std::vector<transport::PeerAddress> peers;
  for (int r = 0; r < 2; ++r) {
    sockets.push_back(std::make_unique<transport::UdpTransport>());
    peers.push_back({"127.0.0.1", sockets.back()->port()});
  }
  for (auto& socket : sockets) socket->set_peers(peers);
  auto forging =
      std::make_unique<ForgingTransport>(std::move(sockets[0]), 1000, 25);
  const int injected = forging->total();
  std::vector<std::unique_ptr<SocketTransport>> cluster;
  for (int r = 0; r < 2; ++r) {
    SocketTransportConfig cfg;
    cfg.rank = r;
    cfg.ranks = 2;
    std::unique_ptr<transport::DatagramTransport> net;
    if (r == 0)
      net = std::move(forging);
    else
      net = std::move(sockets[1]);
    cluster.push_back(
        std::make_unique<SocketTransport>(fam.graph, cfg, std::move(net)));
  }

  std::vector<TransportStats> stats;
  std::vector<RunReport> reports =
      solve_on_cluster(fam, "mst", params, cluster, &stats);
  for (std::size_t r = 0; r < reports.size(); ++r)
    EXPECT_TRUE(io::run_reports_identical(reports[r], ref)) << "rank " << r;
  // Every forgery was dropped unread; none reached the link state (which
  // would have wedged or diverged the solve above).
  EXPECT_GE(stats[0].datagrams_rejected, injected);
  EXPECT_EQ(stats[1].datagrams_rejected, 0);
}

// ---------------------------------------------------------- divergence --

/// A hand-built round: the canonical batch one replica hands exchange().
struct Batch {
  std::vector<VertexId> to;
  std::vector<std::uint32_t> slot;
  std::vector<congest::Message> payload;

  void add(const Graph& g, VertexId from, VertexId dest, std::int64_t value) {
    const EdgeId e = g.find_edge(from, dest);
    to.push_back(dest);
    slot.push_back(static_cast<std::uint32_t>(2 * e) +
                   (g.edge(e).u == from ? 0u : 1u));
    congest::Message m;
    m.value = value;
    payload.push_back(m);
  }
};

/// Runs one exchange() per rank of a 2-rank loopback cluster on the 4-cycle
/// (rank 0 owns {0, 1}, rank 1 owns {2, 3}; cut edges 1-2 and 0-3), rank r
/// with `batches[r]` in round `rounds[r]`. Returns each rank's
/// TransportError text, empty when exchange() returned.
std::vector<std::string> exchange_once(
    const Graph& g, std::vector<Batch>& batches,
    const std::vector<long long>& rounds = {1, 1}) {
  SocketTransportConfig cfg;
  cfg.stall_timeout_ms = 5000;  // a regression fails instead of hanging
  auto cluster = transport::make_loopback_cluster(g, 2, cfg);
  std::vector<std::string> errors(2);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&, r] {
      const auto rank = static_cast<std::size_t>(r);
      transport::RoundTraffic traffic;
      traffic.round = rounds[rank];
      traffic.to = batches[rank].to;
      traffic.slot = batches[rank].slot;
      traffic.payload = batches[rank].payload;
      try {
        cluster[rank]->exchange(traffic);
      } catch (const transport::TransportError& e) {
        errors[rank] = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  return errors;
}

bool diverged(const std::string& error) {
  return error.find("replica divergence") != std::string::npos;
}

TEST(TransportDivergence, AgreeingBatchesTakeTheSendersBytes) {
  Graph g = gen::cycle(4);
  std::vector<Batch> batches(2);
  batches[0].add(g, 1, 2, 12);
  batches[0].add(g, 0, 3, 3);
  batches[1].add(g, 1, 2, -1);  // rank 1's local bytes for rank 0's sends
  batches[1].add(g, 0, 3, -1);
  std::vector<std::string> errors = exchange_once(g, batches);
  EXPECT_EQ(errors[0], "");
  EXPECT_EQ(errors[1], "");
  // The receiving owner substituted the sending owner's wire bytes.
  EXPECT_EQ(batches[1].payload[0].value, 12);
  EXPECT_EQ(batches[1].payload[1].value, 3);
  EXPECT_EQ(batches[0].payload[0].value, 12);
}

TEST(TransportDivergence, ExtraRecord) {
  Graph g = gen::cycle(4);
  std::vector<Batch> batches(2);
  batches[0].add(g, 1, 2, 12);
  batches[0].add(g, 0, 3, 3);
  batches[1].add(g, 1, 2, 12);  // rank 1 never computed the 0 -> 3 send
  std::vector<std::string> errors = exchange_once(g, batches);
  EXPECT_EQ(errors[0], "");
  EXPECT_TRUE(diverged(errors[1])) << errors[1];
}

TEST(TransportDivergence, MissingRecord) {
  Graph g = gen::cycle(4);
  std::vector<Batch> batches(2);
  batches[0].add(g, 1, 2, 12);
  batches[1].add(g, 1, 2, 12);
  batches[1].add(g, 0, 3, 3);  // rank 0 never sends it
  std::vector<std::string> errors = exchange_once(g, batches);
  EXPECT_EQ(errors[0], "");
  EXPECT_TRUE(diverged(errors[1])) << errors[1];
}

TEST(TransportDivergence, ReorderedBatch) {
  Graph g = gen::cycle(4);
  std::vector<Batch> batches(2);
  batches[0].add(g, 1, 2, 12);
  batches[0].add(g, 0, 3, 3);
  batches[1].add(g, 0, 3, 3);  // same entries, another merge order
  batches[1].add(g, 1, 2, 12);
  std::vector<std::string> errors = exchange_once(g, batches);
  EXPECT_EQ(errors[0], "");
  EXPECT_TRUE(diverged(errors[1])) << errors[1];
}

TEST(TransportDivergence, WrongRound) {
  Graph g = gen::cycle(4);
  std::vector<Batch> batches(2);
  std::vector<std::string> errors = exchange_once(g, batches, {1, 2});
  EXPECT_TRUE(diverged(errors[0])) << errors[0];
  EXPECT_TRUE(diverged(errors[1])) << errors[1];
}

// ------------------------------------------------------------- liveness --

TEST(TransportLiveness, SilentPeerFailsWithinStallTimeout) {
  Graph g = gen::cycle(4);
  SocketTransportConfig cfg;
  cfg.max_timeout_ms = 300;
  cfg.stall_timeout_ms = 300;
  auto cluster = transport::make_loopback_cluster(g, 2, cfg);
  Batch batch;
  batch.add(g, 1, 2, 12);
  transport::RoundTraffic traffic;
  traffic.round = 1;
  traffic.to = batch.to;
  traffic.slot = batch.slot;
  traffic.payload = batch.payload;
  // Rank 1 never exchanges: rank 0 retransmits into silence, then gives up.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(cluster[0]->exchange(traffic), transport::TransportError);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(300));
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
  EXPECT_GT(cluster[0]->stats().retransmits, 0);
}

/// Passes rounds through to a real rank until `fail_round`, then throws
/// locally at that round's barrier, before sending anything for it: the
/// rank falls silent with its earlier packets possibly still in flight.
class DyingTransport final : public transport::Transport {
 public:
  DyingTransport(transport::Transport& inner, long long fail_round)
      : inner_(inner), fail_round_(fail_round) {}
  void exchange(const transport::RoundTraffic& traffic) override {
    if (traffic.round == fail_round_) {
      failed_at = std::chrono::steady_clock::now();
      throw transport::TransportError("rank lost");
    }
    inner_.exchange(traffic);
  }

  std::chrono::steady_clock::time_point failed_at;

 private:
  transport::Transport& inner_;
  long long fail_round_;
};

TEST(TransportLiveness, RankLostMidRunFailsEverySurvivor) {
  const FamilyCase fam = transport_families()[0];
  Rng wrng(47);
  const WorkloadParams params = params_for(fam.graph, wrng);
  SocketTransportConfig cfg;
  cfg.max_timeout_ms = 300;
  cfg.stall_timeout_ms = 300;
  auto cluster = transport::make_loopback_cluster(fam.graph, 3, cfg);
  DyingTransport dying(*cluster[2], 5);
  struct Outcome {
    bool returned = false;
    bool transport_error = false;
    std::string other_error;
    std::chrono::steady_clock::time_point ended;
  };
  std::vector<Outcome> outcome(3);
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      Outcome& out = outcome[static_cast<std::size_t>(r)];
      try {
        Session session(fam.graph, fam.cert);
        session.set_transport(
            r == 2 ? static_cast<transport::Transport*>(&dying)
                   : cluster[static_cast<std::size_t>(r)].get());
        (void)session.solve("mst", params, SolveOptions{});
        out.returned = true;
      } catch (const transport::TransportError&) {
        out.transport_error = true;
      } catch (const std::exception& e) {
        out.other_error = e.what();
      }
      out.ended = std::chrono::steady_clock::now();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int r = 0; r < 3; ++r) {
    SCOPED_TRACE(r);
    const Outcome& out = outcome[static_cast<std::size_t>(r)];
    EXPECT_FALSE(out.returned) << "a rank returned a report";
    EXPECT_TRUE(out.transport_error) << out.other_error;
  }
  // Each survivor notices within its stall timeout plus retransmit slack.
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE(r);
    EXPECT_LT(outcome[static_cast<std::size_t>(r)].ended - dying.failed_at,
              std::chrono::milliseconds(1000));
  }
}

// --------------------------------------------------------------- limits --

TEST(TransportLimits, RankCountFitsTheOneByteRankField) {
  Graph g = gen::path(3);
  SocketTransportConfig cfg;
  cfg.ranks = SocketTransport::kMaxRanks;
  cfg.rank = SocketTransport::kMaxRanks - 1;
  SocketTransport widest(g, cfg,
                         std::make_unique<transport::UdpTransport>());
  EXPECT_EQ(widest.ranks(), 256);
  cfg.ranks = 257;
  cfg.rank = 0;
  EXPECT_THROW(SocketTransport(g, cfg,
                               std::make_unique<transport::UdpTransport>()),
               transport::TransportError);
}

/// Records the receive room a SocketTransport asks its datagram layer for.
class ReserveRecorder final : public transport::DatagramTransport {
 public:
  explicit ReserveRecorder(std::size_t* reserved) : reserved_(reserved) {}
  void send(int, std::span<const std::uint8_t>) override {}
  bool receive(std::vector<std::uint8_t>&, int) override { return false; }
  void reserve_receive(std::size_t datagrams) override {
    *reserved_ = datagrams;
  }

 private:
  std::size_t* reserved_;
};

TEST(TransportLimits, SocketTransportReservesAWindowFromEveryPeer) {
  Graph g = gen::path(3);
  SocketTransportConfig cfg;
  cfg.ranks = 3;
  cfg.window = 16;
  std::size_t reserved = 0;
  SocketTransport rank0(g, cfg, std::make_unique<ReserveRecorder>(&reserved));
  EXPECT_EQ(reserved, 16u * 2u);
}

TEST(TransportLimits, UdpReceiveBufferHoldsTheReservedDatagrams) {
  // The request is capped at the kernel's rmem_max, which the transport
  // reads and never raises; the test reads it the same way.
  const std::size_t datagrams = 64;
  const std::size_t requested =
      datagrams * transport::UdpTransport::kDatagramTruesize;
  std::size_t cap = requested;
  std::ifstream rmem_max("/proc/sys/net/core/rmem_max");
  if (std::size_t limit = 0; rmem_max >> limit) cap = std::min(cap, limit);
  transport::UdpTransport udp;
  udp.reserve_receive(datagrams);
  EXPECT_GE(udp.receive_buffer_bytes(), cap);
  // A smaller reservation never shrinks the buffer.
  const std::size_t grown = udp.receive_buffer_bytes();
  udp.reserve_receive(1);
  EXPECT_EQ(udp.receive_buffer_bytes(), grown);
}

// ------------------------------------------------- serving over transport --

TEST(TransportServe, QueryServerRanksBitIdenticalToLocalServer) {
  FamilyCase fam{"grid", gen::grid(7, 7).graph(), greedy_certificate()};
  Rng wrng(47);
  std::vector<Weight> w = gen::unique_random_weights(fam.graph, wrng);

  std::vector<serve::Request> batch;
  {
    serve::Request mst;
    mst.workload = "mst";
    mst.params.weights = w;
    batch.push_back(mst);
    for (VertexId src : {0, 24}) {
      serve::Request sssp;
      sssp.workload = "sssp.approx";
      sssp.params.weights = w;
      sssp.params.source = src;
      batch.push_back(sssp);
    }
  }

  // Local reference server: warm pass builds, second pass is the reference.
  auto ref_core =
      std::make_shared<const congest::SolverCore>(fam.graph, fam.cert);
  serve::QueryServer ref_server(ref_core);
  (void)ref_server.warm(batch);
  std::vector<serve::Response> ref = ref_server.warm(batch);
  for (const serve::Response& r : ref) ASSERT_TRUE(r.ok()) << r.error;

  // Two transport-backed QueryServers, one per rank, both serving the SAME
  // batch sequence (warm + measured pass) in lock-step.
  auto cluster = transport::make_loopback_cluster(fam.graph, 2);
  std::vector<std::vector<serve::Response>> got(2);
  std::vector<std::string> errors(2);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        auto core =
            std::make_shared<const congest::SolverCore>(fam.graph, fam.cert);
        serve::ServerConfig cfg;
        cfg.workers = 1;
        cfg.transport = cluster[static_cast<std::size_t>(r)].get();
        serve::QueryServer server(core, cfg);
        (void)server.warm(batch);
        got[static_cast<std::size_t>(r)] = server.warm(batch);
        cluster[static_cast<std::size_t>(r)]->shutdown();
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    ASSERT_TRUE(errors[static_cast<std::size_t>(r)].empty())
        << errors[static_cast<std::size_t>(r)];
    const auto& responses = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(responses.size(), ref.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << responses[i].error;
      EXPECT_TRUE(
          io::run_reports_identical(responses[i].report, ref[i].report))
          << "request " << i;
    }
  }
}

TEST(TransportServe, TransportRequiresSingleWorker) {
  Graph g = gen::grid(3, 3).graph();
  auto core = std::make_shared<const congest::SolverCore>(
      g, greedy_certificate());
  InProcessTransport transport;
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.transport = &transport;
  EXPECT_THROW(serve::QueryServer(core, cfg), InvariantViolation);
}

// ------------------------------------------------------------- lifecycle --

TEST(TransportLifecycle, SetTransportWithPendingSendsThrows) {
  Graph g = gen::path(3);
  congest::Simulator sim(g);
  InProcessTransport transport;
  sim.set_transport(&transport);  // between rounds: fine
  sim.send(0, g.find_edge(0, 1), congest::Message{});
  EXPECT_THROW(sim.set_transport(nullptr), std::logic_error);
  sim.finish_round();
  sim.set_transport(nullptr);  // drained: fine again
  EXPECT_EQ(transport.stats().rounds_exchanged, 1);
}

}  // namespace
}  // namespace mns
