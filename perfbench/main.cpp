// perfbench — one command for the repository's end-to-end and per-layer
// performance numbers (see README.md in this directory).
//
//   perfbench --workload churn|serve|dist --seed N --seconds S --trace 0|1
//             [--size full|tiny]
//
// Prints a human-readable table, then, as the LAST line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 if
// any request failed its check, 2 on bad arguments.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"throughput_rps", "1/s"},
    {"rounds_per_request", "count"},
    {"messages_per_request", "count"},
    {"peak_rss_mib", "MiB"},
};

constexpr Metric kPerLayer[] = {
    {"gen.ms", "ms"},
    {"core.tree_ms", "ms"},
    {"io.save_ms", "ms"},
    {"io.restore_ms", "ms"},
    {"io.snapshot_bytes", "bytes"},
    {"core.build_calls", "count"},
    {"core.build_ms", "ms"},
    {"core.build_us_per_call", "us"},
    {"core.shortcut_edges", "count"},
    {"core.block_max", "count"},
    {"core.congestion_max", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.evictions", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.lookup_us", "us"},
    {"update.ms", "ms"},
    {"update.entries_kept", "count"},
    {"update.entries_invalidated", "count"},
    {"update.subpaths_rebuilt", "count"},
    {"update.keep_ratio", "ratio"},
    {"sim.rounds", "count"},
    {"sim.messages", "count"},
    {"sim.peak_round_msgs", "count"},
    {"sim.replay_ms", "ms"},
    {"sim.ns_per_msg", "ns"},
    {"programs.self_ms", "ms"},
    {"programs.phases", "count"},
    {"programs.aggregations", "count"},
    {"programs.phase_ms_max", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.busy_frac", "ratio"},
    {"transport.rounds_exchanged", "count"},
    {"transport.wire_records", "count"},
    {"transport.barrier_us_p50", "us"},
    {"transport.datagrams_sent", "count"},
    {"transport.retransmits", "count"},
    {"transport.retransmit_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload churn|serve|dist "
               "--seed N --seconds S --trace 0|1 [--size full|tiny]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
      have_workload = val == "churn" || val == "serve" || val == "dist";
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || opt.seconds < 0)
        usage("--seconds takes a non-negative number");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      opt.trace = val == "1";
    } else if (key == "--size") {
      if (val != "full" && val != "tiny") usage("--size takes full or tiny");
      opt.tiny = val == "tiny";
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload must be churn, serve or dist");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Result res;
  try {
    if (opt.workload == "churn") res = perfbench::run_churn(opt);
    if (opt.workload == "serve") res = perfbench::run_serve(opt);
    if (opt.workload == "dist") res = perfbench::run_dist(opt);
  } catch (const std::exception& e) {
    // An exception escaping a workload is a failed run, not a result.
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d size=%s "
              "nproc=%u compiler=\"%s\" build=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? "tiny" : "full",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  for (const Metric& m : kEndToEnd)
    std::printf("  %-28s %14s %s\n", m.name, number(res.e2e[m.name]).c_str(),
                m.unit);
  const double fail_ratio =
      res.attempted > 0 ? static_cast<double>(res.failed) /
                              static_cast<double>(res.attempted)
                        : 1.0;
  std::printf("  %-28s %14s ratio (%lld failed of %lld)\n", "fail_ratio",
              number(fail_ratio).c_str(), res.failed, res.attempted);
  if (opt.trace) {
    std::printf("  per-layer (traced pass; '-' = layer not on this workload)\n");
    for (const Metric& m : kPerLayer) {
      const auto it = res.layer.find(m.name);
      std::printf("  %-28s %14s %s\n", m.name,
                  it == res.layer.end() ? "-" : number(it->second).c_str(),
                  m.unit);
    }
  }
  for (const std::string& note : res.notes)
    std::printf("  note: %s\n", note.c_str());

  const bool correct = res.failed == 0 && res.attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) +
                     ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Metric& m, double v) {
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + number(v) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (opt.trace) {
    // Layers a workload does not run report 0.
    for (const Metric& m : kPerLayer) emit(m, res.layer[m.name]);
  } else {
    for (const Metric& m : kEndToEnd) emit(m, res.e2e[m.name]);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
