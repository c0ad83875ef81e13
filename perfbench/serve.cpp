// serve: a QueryServer per family over a snapshot-restored warm core, 2
// workers, draining burst batches (every request of a batch is due at
// submission). Set-up per family: generate -> Session -> warm pass of the
// mix -> Session::save -> QueryServer::from_snapshot -> server warm (the
// sequential reference every served answer must bit-match). A request runs
// from its batch's submission to its completion.
#include <filesystem>
#include <memory>

#include "common.hpp"
#include "io/report_json.hpp"
#include "serve/query_server.hpp"
#include "trace_kit.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
constexpr int kSsspSources = 8;

/// The bench_serve mix plus mis: mst, mincut over 4 trees, 8 seeded
/// sssp.approx sources (source-independent cells, so one shared
/// partition), and a seeded mis.
std::vector<serve::Request> mix(const Instance& in, Rng& rng) {
  std::vector<serve::Request> out;
  serve::Request mst;
  mst.workload = "mst";
  mst.params.weights = in.weights;
  out.push_back(mst);
  serve::Request cut;
  cut.workload = "mincut";
  cut.params.weights = in.weights;
  cut.params.num_trees = 4;
  out.push_back(cut);
  std::uniform_int_distribution<VertexId> vertex(
      0, in.graph.num_vertices() - 1);
  for (int i = 0; i < kSsspSources; ++i) {
    serve::Request sssp;
    sssp.workload = "sssp.approx";
    sssp.params.weights = in.weights;
    sssp.params.source = vertex(rng);
    sssp.params.wavefront_seeds = false;
    out.push_back(sssp);
  }
  serve::Request mis;
  mis.workload = "mis";
  mis.params.seed = rng();
  out.push_back(mis);
  return out;
}

std::string check_answer(const Instance& in, const serve::Request& q,
                         const congest::RunReport& r) {
  if (q.workload == "mst") return check_mst(in.graph, in.weights, r);
  if (q.workload == "mincut") return check_mincut(in.graph, in.weights, r);
  if (q.workload == "sssp.approx")
    return check_sssp(in.graph, in.weights, q.params.source,
                      q.params.epsilon, r);
  return check_mis(in.graph, r);
}

struct Family {
  Instance inst;
  std::vector<serve::Request> batch;
  std::unique_ptr<serve::QueryServer> server;
  std::vector<serve::Response> reference;
};

struct SetupTimes {
  double gen_ms = 0, tree_ms = 0, save_ms = 0, restore_ms = 0;
  double snapshot_bytes = 0;
};

std::vector<Family> set_up(const Options& opt, SetupTimes& t) {
  std::filesystem::create_directories(".bench_build/perfbench-tmp");
  auto t0 = Clock::now();
  std::vector<Instance> inst = serve_instances(opt.seed, opt.tiny);
  Rng rng(opt.seed * 0xA24BAED4963EE407ULL + 19);
  std::vector<Family> fams;
  for (Instance& in : inst) {
    std::vector<serve::Request> b = mix(in, rng);
    fams.push_back({std::move(in), std::move(b), nullptr, {}});
  }
  t.gen_ms = ms_since(t0);
  for (Family& f : fams) {
    t0 = Clock::now();
    congest::Session s(f.inst.graph, f.inst.cert, session_config());
    (void)s.tree();
    t.tree_ms += ms_since(t0);
    for (const serve::Request& q : f.batch)
      (void)s.solve(q.workload, q.params, q.options);
    const std::string path =
        ".bench_build/perfbench-tmp/serve-" + f.inst.family + ".snap";
    t0 = Clock::now();
    s.save(path, f.inst.weights);
    t.save_ms += ms_since(t0);
    t.snapshot_bytes += static_cast<double>(std::filesystem::file_size(path));
    serve::ServerConfig cfg;
    cfg.workers = kWorkers;
    cfg.core.tree = center_tree_factory(1);
    t0 = Clock::now();
    f.server.reset(
        new serve::QueryServer(serve::QueryServer::from_snapshot(path, cfg)));
    t.restore_ms += ms_since(t0);
    std::filesystem::remove(path);
    f.reference = f.server->warm(f.batch);
  }
  return fams;
}

}  // namespace

Result run_serve(const Options& opt) {
  Result out;
  std::vector<double> setup_s, gen_ms, tree_ms, save_ms, restore_ms;
  double snapshot_bytes = 0.0;
  std::vector<Family> fams;
  for (int r = 0; r < setup_repeats(opt); ++r) {
    fams.clear();
    SetupTimes t;
    const auto t0 = Clock::now();
    fams = set_up(opt, t);
    setup_s.push_back(ms_since(t0) / 1000.0);
    gen_ms.push_back(t.gen_ms);
    tree_ms.push_back(t.tree_ms);
    save_ms.push_back(t.save_ms);
    restore_ms.push_back(t.restore_ms);
    snapshot_bytes = t.snapshot_bytes;
  }
  // The references are oracle-checked once per distinct request.
  for (const Family& f : fams)
    for (std::size_t i = 0; i < f.batch.size(); ++i) {
      const serve::Response& ref = f.reference[i];
      std::string why = ref.ok() ? check_answer(f.inst, f.batch[i], ref.report)
                                 : ref.error;
      if (why.empty() && ref.report.charged_construction_rounds != 0)
        why = "post-warm-up request paid a construction charge";
      if (!why.empty())
        out.fail("serve " + f.inst.family + " " + f.batch[i].workload + ": " +
                 why);
    }

  LoopStats loop;
  loop.tail_percentile = 95.0;
  std::vector<double> wait_ms, service_ms;
  double verify_ms = 0.0, batch_wall_ms = 0.0, service_total_ms = 0.0;
  const auto start = Clock::now();
  for (std::size_t b = 0;
       b < fams.size() || ms_since(start) < opt.seconds * 1000.0; ++b) {
    Family& f = fams[b % fams.size()];
    std::vector<Clock::time_point> done(f.batch.size());
    const auto submitted = Clock::now();
    const std::vector<serve::Response> got = f.server->serve(
        f.batch, [&done](std::size_t i, const serve::Response&) {
          done[i] = Clock::now();
        });
    batch_wall_ms += ms_since(submitted);

    const auto v0 = Clock::now();
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double latency = ms_between(submitted, done[i]);
      const double service = got[i].report.wall_ms;
      loop.latency_ms.push_back(latency);
      loop.done_ms.push_back(ms_between(start, done[i]) - verify_ms);
      service_ms.push_back(service);
      wait_ms.push_back(latency - service);
      service_total_ms += service;
      ++out.attempted;
      if (!got[i].ok())
        out.fail("serve error: " + got[i].error);
      else if (!io::run_reports_identical(got[i].report,
                                          f.reference[i].report))
        out.fail("serve " + f.inst.family + " " + f.batch[i].workload +
                 ": differs from the sequential reference");
      if (b < fams.size()) {
        loop.prefix_rounds += got[i].report.total_rounds();
        loop.prefix_messages += got[i].report.messages;
        ++loop.prefix_requests;
      }
    }
    verify_ms += ms_since(v0);
  }
  loop.finish(out);
  out.e2e["setup_s"] = median(setup_s);
  out.layer["gen.ms"] = median(gen_ms);
  out.layer["core.tree_ms"] = median(tree_ms);
  out.layer["io.save_ms"] = median(save_ms);
  out.layer["io.restore_ms"] = median(restore_ms);
  out.layer["io.snapshot_bytes"] = snapshot_bytes;
  out.layer["serve.wait_ms_p50"] = median(wait_ms);
  out.layer["serve.service_ms_p50"] = median(service_ms);
  out.layer["serve.busy_frac"] =
      batch_wall_ms > 0.0 ? service_total_ms / (kWorkers * batch_wall_ms) : 0.0;
  if (!opt.trace) return out;

  // Traced pass: a transport needs a single driving handle, so every
  // distinct request is replayed on one extra SolveHandle over each
  // server's core, untraced and then traced.
  LayerTally tally;
  for (const Family& f : fams) {
    congest::SolveHandle handle(f.server->core_ptr());
    for (std::size_t i = 0; i < f.batch.size(); ++i) {
      const serve::Request& q = f.batch[i];
      auto t0 = Clock::now();
      const congest::RunReport plain =
          handle.solve(q.workload, q.params, q.options);
      tally.untraced_ms += ms_since(t0);

      CaptureTransport capture;
      PhaseClock clock;
      congest::SolveOptions so = q.options;
      so.trace = clock.hook();
      handle.set_transport(&capture);
      tally.build.mark(handle.core());
      t0 = Clock::now();
      clock.start();
      const congest::RunReport traced = handle.solve(q.workload, q.params, so);
      tally.traced_ms += ms_since(t0);
      handle.set_transport(nullptr);
      tally.build.collect(handle.core());
      tally.add(traced);
      tally.add(clock);
      tally.add(capture, handle.graph());
      ++tally.requests;
      for (const congest::RunReport* r : {&plain, &traced}) {
        ++out.attempted;
        if (!io::run_reports_identical(*r, f.reference[i].report))
          out.fail("serve trace " + f.inst.family + " " + q.workload +
                   ": differs from the sequential reference");
      }
    }
  }
  tally.fill(out);
  out.layer["cache.lookup_us"] = lookup_us(fams.front().server->core());
  return out;
}

}  // namespace perfbench
