// churn: one closed-loop caller, threads = 1, one Session per instance (two
// planar grids, two apexed clique-sum chains). Request i goes to instance
// i % 4 and applies one Session::update batch — a seeded weight swap when
// (i / 4) is even, else a seeded remove + reinsert of one edge — then solves
// mst and sssp.approx on the updated graph. A request runs from the update
// call to the last answer.
#include <cmath>
#include <memory>

#include "common.hpp"
#include "trace_kit.hpp"

namespace perfbench {
namespace {

/// Requests 0..7 cover every instance with both batch kinds; they are the
/// deterministic prefix every run executes and the traced pass replays.
constexpr long long kPrefix = 8;

congest::ApproxSssp sssp_query(const Graph& g, std::vector<Weight> w,
                               VertexId source) {
  congest::ApproxSssp q{std::move(w), source};
  q.epsilon = 0.25;
  q.num_seeds = std::max<VertexId>(
      8, static_cast<VertexId>(
             std::sqrt(static_cast<double>(g.num_vertices()))) / 8);
  q.repartition_growth = 1.0;
  q.wavefront_seeds = false;  // source-independent cells: cacheable
  return q;
}

struct Tracing {
  CaptureTransport capture;
  PhaseClock clock;
  LayerTally tally;
  double update_ms = 0.0;
  long long kept = 0, invalidated = 0, subpaths = 0;
};

/// The live state of one run: a Session and its current weights per
/// instance, plus the request generator.
class Churn {
 public:
  Churn(std::uint64_t seed, bool tiny, double& gen_ms, double& tree_ms)
      : rng_(seed * 0xD1B54A32D192ED03ULL + 12) {
    auto t0 = Clock::now();
    std::vector<Instance> inst = churn_instances(seed, tiny);
    gen_ms = ms_since(t0);
    t0 = Clock::now();
    for (Instance& in : inst) {
      weights_.push_back(std::move(in.weights));
      sessions_.push_back(std::make_unique<congest::Session>(
          std::move(in.graph), std::move(in.cert), session_config()));
      (void)sessions_.back()->tree();
    }
    tree_ms = ms_since(t0);
    // First pass: every instance answers mst and sssp.approx once, so the
    // loop starts from a warm cache.
    for (std::size_t k = 0; k < sessions_.size(); ++k) {
      congest::Session& s = *sessions_[k];
      warm_.push_back(s.solve(congest::Mst{weights_[k]}));
      warm_.push_back(s.solve(sssp_query(s.graph(), weights_[k], 0)));
    }
  }

  /// Checks the first pass's answers; returns the failures.
  [[nodiscard]] std::vector<std::string> check_warm() const {
    std::vector<std::string> bad;
    for (std::size_t k = 0; k < sessions_.size(); ++k) {
      const Graph& g = sessions_[k]->graph();
      for (const std::string& why :
           {check_mst(g, weights_[k], warm_[2 * k]),
            check_sssp(g, weights_[k], 0, 0.25, warm_[2 * k + 1])})
        if (!why.empty()) bad.push_back("first pass: " + why);
    }
    return bad;
  }

  /// Runs request i; returns its latency. Verification is excluded from
  /// the latency and reported through `verify_ms` and `out`.
  double request(long long i, Result& out, double& verify_ms,
                 long long& total_rounds, long long& messages,
                 Tracing* trace) {
    const auto n = static_cast<long long>(sessions_.size());
    const auto k = static_cast<std::size_t>(i % n);
    congest::Session& s = *sessions_[k];
    std::vector<Weight>& w = weights_[k];
    const EdgeId m = s.graph().num_edges();
    std::uniform_int_distribution<EdgeId> pick(0, m - 1);
    UpdateBatch batch;
    if ((i / n) % 2 == 0) {
      const EdgeId a = pick(rng_);
      EdgeId b = pick(rng_);
      if (b == a) b = (a + 1) % m;
      batch.weight_changes = {{a, w[b]}, {b, w[a]}};
    } else {
      const EdgeId e = pick(rng_);
      batch.remove_edges = {e};
      batch.insert_edges = {{s.graph().edge(e).u, s.graph().edge(e).v, w[e]}};
    }
    const VertexId source = std::uniform_int_distribution<VertexId>(
        0, s.graph().num_vertices() - 1)(rng_);

    const auto t0 = Clock::now();
    const congest::UpdateStats st = s.update(batch, &w);
    const double update_ms = ms_since(t0);
    congest::SolveOptions so;
    if (trace != nullptr) {
      // A structural update recreates the handle, detaching transports.
      s.set_transport(&trace->capture);
      trace->tally.build.mark(*s.core_ptr());
      so.trace = trace->clock.hook();
      trace->clock.start();
    }
    const congest::RunReport mst = s.solve(congest::Mst{w}, so);
    if (trace != nullptr) trace->clock.start();
    const congest::RunReport sssp = s.solve(sssp_query(s.graph(), w, source), so);
    const double latency = ms_since(t0);
    if (trace != nullptr) {
      s.set_transport(nullptr);
      Tracing& t = *trace;
      t.update_ms += update_ms;
      t.kept += static_cast<long long>(st.entries_kept);
      t.invalidated += static_cast<long long>(st.entries_invalidated);
      t.subpaths += static_cast<long long>(st.subpaths_rebuilt);
      t.tally.add(mst);
      t.tally.add(sssp);
      t.tally.add(t.clock);
      t.clock = PhaseClock();
      t.tally.build.collect(*s.core_ptr());
      t.tally.add(t.capture, s.graph());
      ++t.tally.requests;
    }
    total_rounds = mst.total_rounds() + sssp.total_rounds();
    messages = mst.messages + sssp.messages;

    const auto v0 = Clock::now();
    ++out.attempted;
    std::string why = check_mst(s.graph(), w, mst);
    if (why.empty()) why = check_sssp(s.graph(), w, source, 0.25, sssp);
    if (!why.empty()) out.fail("churn request " + std::to_string(i) + ": " + why);
    verify_ms += ms_since(v0);
    return latency;
  }

  [[nodiscard]] double lookup() const {
    return lookup_us(*sessions_.front()->core_ptr());
  }

 private:
  Rng rng_;
  std::vector<std::unique_ptr<congest::Session>> sessions_;
  std::vector<std::vector<Weight>> weights_;
  std::vector<congest::RunReport> warm_;
};

}  // namespace

Result run_churn(const Options& opt) {
  Result out;
  std::vector<double> setup_s, gen_ms, tree_ms;
  std::unique_ptr<Churn> churn;
  for (int r = 0; r < setup_repeats(opt); ++r) {
    churn.reset();
    double g = 0.0, t = 0.0;
    const auto t0 = Clock::now();
    churn = std::make_unique<Churn>(opt.seed, opt.tiny, g, t);
    setup_s.push_back(ms_since(t0) / 1000.0);
    gen_ms.push_back(g);
    tree_ms.push_back(t);
  }
  for (const std::string& why : churn->check_warm()) out.fail(why);

  LoopStats loop;
  loop.tail_percentile = 75.0;
  double verify_ms = 0.0;
  const auto start = Clock::now();
  for (long long i = 0; i < kPrefix || ms_since(start) < opt.seconds * 1000.0;
       ++i) {
    long long rounds = 0, messages = 0;
    loop.latency_ms.push_back(
        churn->request(i, out, verify_ms, rounds, messages, nullptr));
    loop.done_ms.push_back(ms_since(start) - verify_ms);
    if (i < kPrefix) {
      loop.prefix_rounds += rounds;
      loop.prefix_messages += messages;
      ++loop.prefix_requests;
    }
  }
  churn.reset();
  loop.finish(out);
  out.e2e["setup_s"] = median(setup_s);
  out.layer["gen.ms"] = median(gen_ms);
  out.layer["core.tree_ms"] = median(tree_ms);
  if (!opt.trace) return out;

  // Traced pass: the same prefix on fresh state, every layer instrumented.
  double g = 0.0, t = 0.0;
  Churn traced(opt.seed, opt.tiny, g, t);
  Tracing tr;
  for (long long i = 0; i < kPrefix; ++i) {
    long long rounds = 0, messages = 0;
    tr.tally.traced_ms += traced.request(i, out, verify_ms, rounds, messages, &tr);
    tr.tally.untraced_ms += loop.latency_ms[static_cast<std::size_t>(i)];
  }
  tr.tally.fill(out);
  const double k = static_cast<double>(kPrefix);
  out.layer["update.ms"] = tr.update_ms / k;
  out.layer["update.entries_kept"] = static_cast<double>(tr.kept) / k;
  out.layer["update.entries_invalidated"] =
      static_cast<double>(tr.invalidated) / k;
  out.layer["update.subpaths_rebuilt"] = static_cast<double>(tr.subpaths) / k;
  out.layer["update.keep_ratio"] =
      tr.kept + tr.invalidated > 0
          ? static_cast<double>(tr.kept) /
                static_cast<double>(tr.kept + tr.invalidated)
          : 0.0;
  out.layer["cache.lookup_us"] = traced.lookup();
  return out;
}

}  // namespace perfbench
