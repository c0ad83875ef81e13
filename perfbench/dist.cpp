// dist: 2-rank make_loopback_cluster per instance — 2 driving threads,
// 2 UDP sockets on 127.0.0.1, clean links — over one warm SolverCore per
// instance. A request is one distributed job: mst and then sssp.approx on
// every instance (two planar grids and two random 3-trees), each answered
// by both ranks in lock-step. Each rank's report must be bit-identical to
// the single-process one. A request runs from launching both ranks to the
// last rank's last answer.
#include <memory>
#include <thread>

#include "common.hpp"
#include "io/report_json.hpp"
#include "trace_kit.hpp"
#include "transport/loopback.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 2;
/// Jobs in the traced pass: a single job is at the mercy of one scheduling
/// hiccup on a shared host.
constexpr int kTracedJobs = 3;
const char* const kWorkloads[] = {"mst", "sssp.approx"};

struct Cluster {
  std::vector<std::unique_ptr<transport::SocketTransport>> ranks;
  std::vector<std::unique_ptr<congest::SolveHandle>> handles;
};

Cluster bind_cluster(const std::shared_ptr<const congest::SolverCore>& core) {
  transport::SocketTransportConfig cfg;
  cfg.stall_timeout_ms = 10000;  // a wedged run fails instead of hanging
  Cluster c;
  c.ranks = transport::make_loopback_cluster(core->graph(), kRanks, cfg);
  for (int r = 0; r < kRanks; ++r) {
    c.handles.push_back(std::make_unique<congest::SolveHandle>(core));
    c.handles.back()->set_transport(c.ranks[static_cast<std::size_t>(r)].get());
  }
  return c;
}

void shut_down(std::vector<Cluster>& clusters) {
  std::vector<std::thread> threads;
  for (Cluster& c : clusters)
    for (auto& rank : c.ranks)
      threads.emplace_back([&rank] {
        try {
          rank->shutdown(10);
        } catch (const std::exception&) {
          // Teardown only: every answer was already collected.
        }
      });
  for (std::thread& t : threads) t.join();
}

struct Target {
  Instance inst;
  std::shared_ptr<const congest::SolverCore> core;
  congest::WorkloadParams params;
  std::vector<congest::RunReport> reference;  ///< per workload
};

struct State {
  std::vector<Target> targets;
  std::vector<Cluster> clusters;  ///< parallel to targets
};

struct SetupTimes {
  double gen_ms = 0, tree_ms = 0;
};

State set_up(const Options& opt, SetupTimes& t) {
  auto t0 = Clock::now();
  std::vector<Instance> inst = dist_instances(opt.seed, opt.tiny);
  t.gen_ms = ms_since(t0);
  Rng rng(opt.seed * 0x94D049BB133111EBULL + 20);
  State s;
  for (Instance& in : inst) {
    Target tg;
    t0 = Clock::now();
    congest::CoreConfig cc;
    cc.tree = center_tree_factory(1);
    tg.core = std::make_shared<const congest::SolverCore>(in.graph, in.cert,
                                                          std::move(cc));
    (void)tg.core->tree();
    t.tree_ms += ms_since(t0);
    tg.params.weights = in.weights;
    tg.params.source = std::uniform_int_distribution<VertexId>(
        0, in.graph.num_vertices() - 1)(rng);
    // First pass builds every shortcut; the second is the warm
    // single-process reference the ranks must reproduce bit for bit.
    congest::SolveHandle local(tg.core);
    for (const char* w : kWorkloads) (void)local.solve(w, tg.params);
    for (const char* w : kWorkloads)
      tg.reference.push_back(local.solve(w, tg.params));
    tg.inst = std::move(in);
    s.targets.push_back(std::move(tg));
  }
  for (const Target& tg : s.targets) s.clusters.push_back(bind_cluster(tg.core));
  return s;
}

/// Runs one job on `clusters` (parallel to `targets`); returns its latency.
/// `clock`, when given, is driven by rank 0 around each of its solves.
double job(const std::vector<Target>& targets, std::vector<Cluster>& clusters,
           Result& out, double& verify_ms, PhaseClock* clock,
           std::vector<congest::RunReport>& rank0) {
  const std::size_t solves = targets.size() * std::size(kWorkloads);
  std::vector<std::vector<congest::RunReport>> reports(
      kRanks, std::vector<congest::RunReport>(solves));
  std::vector<std::string> errors(kRanks);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r)
    threads.emplace_back([&, r] {
      const auto rank = static_cast<std::size_t>(r);
      try {
        for (std::size_t i = 0; i < solves; ++i) {
          const std::size_t k = i / std::size(kWorkloads);
          congest::SolveOptions so;
          if (r == 0 && clock != nullptr) {
            so.trace = clock->hook();
            clock->start();
          }
          reports[rank][i] = clusters[k].handles[rank]->solve(
              kWorkloads[i % std::size(kWorkloads)], targets[k].params, so);
        }
      } catch (const std::exception& e) {
        errors[rank] = e.what();
      }
    });
  for (std::thread& th : threads) th.join();
  const double latency = ms_since(t0);

  const auto v0 = Clock::now();
  for (std::size_t i = 0; i < solves; ++i) {
    const Target& tg = targets[i / std::size(kWorkloads)];
    const std::size_t w = i % std::size(kWorkloads);
    ++out.attempted;
    std::string why;
    for (int r = 0; r < kRanks && why.empty(); ++r) {
      const auto rank = static_cast<std::size_t>(r);
      if (!errors[rank].empty())
        why = "rank " + std::to_string(r) + ": " + errors[rank];
      else if (!io::run_reports_identical(reports[rank][i], tg.reference[w]))
        why = "rank " + std::to_string(r) + " differs from single-process";
    }
    if (!why.empty())
      out.fail("dist " + tg.inst.family + " " + kWorkloads[w] + ": " + why);
  }
  rank0 = std::move(reports[0]);
  verify_ms += ms_since(v0);
  return latency;
}

}  // namespace

Result run_dist(const Options& opt) {
  Result out;
  std::vector<double> setup_s, gen_ms, tree_ms;
  State st;
  for (int r = 0; r < setup_repeats(opt); ++r) {
    shut_down(st.clusters);
    st = State();
    SetupTimes t;
    const auto t0 = Clock::now();
    st = set_up(opt, t);
    setup_s.push_back(ms_since(t0) / 1000.0);
    gen_ms.push_back(t.gen_ms);
    tree_ms.push_back(t.tree_ms);
  }
  // The single-process references are oracle-checked once.
  for (const Target& tg : st.targets) {
    for (const std::string& why :
         {check_mst(tg.inst.graph, tg.inst.weights, tg.reference[0]),
          check_sssp(tg.inst.graph, tg.inst.weights, tg.params.source,
                     tg.params.epsilon, tg.reference[1])})
      if (!why.empty()) out.fail("dist reference " + tg.inst.family + ": " + why);
  }

  LoopStats loop;
  loop.tail_percentile = 75.0;
  double verify_ms = 0.0;
  std::vector<congest::RunReport> rank0;
  const auto start = Clock::now();
  while (loop.latency_ms.empty() ||
         ms_since(start) < opt.seconds * 1000.0) {
    loop.latency_ms.push_back(
        job(st.targets, st.clusters, out, verify_ms, nullptr, rank0));
    loop.done_ms.push_back(ms_since(start) - verify_ms);
    if (loop.prefix_requests == 0) {
      for (const congest::RunReport& r : rank0) {
        loop.prefix_rounds += r.total_rounds();
        loop.prefix_messages += r.messages;
      }
      loop.prefix_requests = 1;
    }
  }
  loop.finish(out);
  out.e2e["setup_s"] = median(setup_s);
  out.layer["gen.ms"] = median(gen_ms);
  out.layer["core.tree_ms"] = median(tree_ms);

  if (opt.trace) {
    // Traced pass: kTracedJobs jobs on freshly bound clusters. Every rank's
    // exchange() is timed; rank 0's traffic is also captured for replay.
    std::vector<Cluster> fresh;
    std::vector<std::unique_ptr<TimedTransport>> timed;  // [target][rank]
    std::vector<std::unique_ptr<CaptureTransport>> capture;
    std::vector<BuildProbe> probes(st.targets.size());
    for (std::size_t k = 0; k < st.targets.size(); ++k) {
      fresh.push_back(bind_cluster(st.targets[k].core));
      Cluster& c = fresh.back();
      for (int r = 0; r < kRanks; ++r) {
        timed.push_back(std::make_unique<TimedTransport>(
            *c.ranks[static_cast<std::size_t>(r)]));
        c.handles[static_cast<std::size_t>(r)]->set_transport(
            timed.back().get());
      }
      capture.push_back(std::make_unique<CaptureTransport>(
          timed[timed.size() - kRanks].get()));
      c.handles[0]->set_transport(capture.back().get());
      probes[k].mark(*st.targets[k].core);
    }
    LayerTally tally;
    PhaseClock clock;
    for (int j = 0; j < kTracedJobs; ++j) {
      tally.traced_ms += job(st.targets, fresh, out, verify_ms, &clock, rank0);
      tally.untraced_ms += median(loop.latency_ms);
      ++tally.requests;
      for (const congest::RunReport& r : rank0) tally.add(r);
    }
    tally.add(clock);
    for (std::size_t k = 0; k < st.targets.size(); ++k) {
      probes[k].collect(*st.targets[k].core);
      tally.build.merge(probes[k]);
      tally.add(*capture[k], st.targets[k].core->graph());
      for (double us : timed[k * kRanks]->exchange_us())
        tally.transport_ms += us / 1000.0;
    }
    tally.fill(out);
    out.layer["cache.lookup_us"] = lookup_us(*st.targets[0].core);

    std::vector<double> barrier_us;
    transport::TransportStats sum;
    for (const auto& t : timed) {
      barrier_us.insert(barrier_us.end(), t->exchange_us().begin(),
                        t->exchange_us().end());
      const transport::TransportStats s = t->stats();
      sum.rounds_exchanged += s.rounds_exchanged;
      sum.wire_records += s.wire_records;
      sum.datagrams_sent += s.datagrams_sent;
      sum.retransmits += s.retransmits;
    }
    out.layer["transport.rounds_exchanged"] =
        static_cast<double>(sum.rounds_exchanged) / kRanks / kTracedJobs;
    out.layer["transport.wire_records"] =
        static_cast<double>(sum.wire_records) / kTracedJobs;
    out.layer["transport.barrier_us_p50"] = median(barrier_us);
    out.layer["transport.datagrams_sent"] =
        static_cast<double>(sum.datagrams_sent) / kTracedJobs;
    out.layer["transport.retransmits"] =
        static_cast<double>(sum.retransmits) / kTracedJobs;
    out.layer["transport.retransmit_ratio"] =
        sum.datagrams_sent > 0 ? static_cast<double>(sum.retransmits) /
                                     static_cast<double>(sum.datagrams_sent)
                               : 0.0;
    shut_down(fresh);
  }
  shut_down(st.clusters);
  return out;
}

}  // namespace perfbench
