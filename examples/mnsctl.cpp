// mnsctl — operator CLI for snapshot-backed sessions (DESIGN.md §8).
//
// The paper's economy is "pay for structure once, reuse it everywhere";
// mnsctl makes "once" survive the process. It generates certificate-family
// instances, snapshots them, warm-builds the shortcut structure, runs any
// registered Session workload FROM a snapshot (a warmed snapshot solves
// with charged_construction_rounds == 0), and diffs RunReport / BENCH JSON
// documents field-by-field — the tool the CI bench-regression gate scripts
// against (`mnsctl diff --baseline`).
//
//   mnsctl gen --family planar --size 16 -o net.mns
//   mnsctl build net.mns --workload sssp.approx     # pay construction once
//   mnsctl solve net.mns --workload sssp.approx -o report.json
//   mnsctl inspect net.mns
//   mnsctl diff --baseline bench/baselines/sessions.json BENCH_sessions.json
//   mnsctl baseline BENCH_sessions.json -o bench/baselines/sessions.json
//
// Exit codes: 0 ok, 1 drift / verification failure, 2 usage or I/O error.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_instances.hpp"
#include "congest/session.hpp"
#include "io/fnv.hpp"
#include "io/json.hpp"
#include "io/report_json.hpp"
#include "io/snapshot.hpp"
#include "serve/query_server.hpp"
#include "transport/fault_injection.hpp"
#include "transport/socket_transport.hpp"

using namespace mns;

namespace {

constexpr const char* kUsage = R"(mnsctl — snapshot-backed CONGEST sessions
usage:
  mnsctl gen --family <planar|treewidth|apex|cliquesum> [--size N] [--seed S]
             -o <snapshot>
  mnsctl build <snapshot> [--workload W] [--threads T] [-o <snapshot>]
  mnsctl update <snapshot> --batch <edits.json> [-o <snapshot>]
  mnsctl solve <snapshot> --workload W [--partition <workload|ldd>]
               [--threads T] [--repeat K] [--cold] [-o report.json]
  mnsctl serve <snapshot> [--workload W] [--workers N] [--requests K]
               [--threads T] [-o responses.json]
  mnsctl dist <snapshot> --workload W [--ranks N] [--threads T]
              [--drop-rate P] [--dup-rate P] [--reorder-rate P]
              [--fault-seed S] [-o report.json]
  mnsctl inspect <snapshot>
  mnsctl diff [--baseline] <a.json> <b.json>
  mnsctl baseline <in.json> -o <out.json>

gen      builds a seeded family instance (graph + adversarial weights +
         structural certificate) and writes it as a snapshot.
build    restores a session, runs one workload to build + cache the shortcut
         structure, and re-saves the WARMED snapshot (construction is now
         paid; later solves from it charge 0 construction rounds).
update   applies a JSON edit batch to a warmed snapshot INCREMENTALLY
         (DESIGN.md §12): weight-only edits keep every cached shortcut,
         structural edits migrate clean entries and re-hang only broken
         tree subpaths; the updated snapshot is re-saved. The batch file is
         an object with any of: "set_weight": [{"u","v","weight"}],
         "insert_edges": [{"u","v","weight"?}], "remove_edges":
         [{"u","v"}], "remove_vertices": [id...], "add_vertices": N
         (insert endpoints >= n address the batch's new vertices).
solve    restores a session and runs a registered workload; prints the
         canonical RunReport JSON (io/report_json.hpp). --repeat K runs the
         workload K times through the same session (later runs hit the
         cache) and emits one wrapper document with all K reports.
         --partition ldd makes shortcut-backed workloads draw from the
         core's low-diameter decomposition (ONE cached shortcut shared by
         mst/mincut/sssp.approx; repeats charge 0 construction rounds).
serve    restores the snapshot into one shared SolverCore and fans K
         requests across N concurrent workers (serve::QueryServer,
         DESIGN.md §10); emits one response JSON line per request in
         request order (each tagged {"request": i, ...}), then a summary
         line with throughput (qps) and latency percentiles.
dist     restores the snapshot in N OS processes (rank 0 = this one, ranks
         1..N-1 forked) wired by acked UDP SocketTransports (DESIGN.md
         §11), solves the workload on every rank in lock-step, verifies all
         replicas produced the identical report (FNV digest all-gather),
         and emits rank 0's canonical RunReport — diffable against a
         single-process `mnsctl solve` report via `mnsctl diff --baseline`.
         --drop-rate/--dup-rate/--reorder-rate inject seeded faults into
         every rank's outbound datagrams.
inspect  prints a JSON summary of a snapshot's sections: file version,
         update history (v2), per-entry cache fingerprints in MRU order,
         and the estimated in-memory footprint of each section
         (graph/weights/certificate/tree/cache bytes; DESIGN.md §9).
diff     compares two JSON documents field-by-field. --baseline compares
         only fields present in <a> and skips nondeterministic ones
         (wall_ms*, wall_time_ms, hardware_concurrency, peak_rss_bytes,
         qps, and the transport delivery counters: retransmits,
         datagrams_*, acks_sent, faults_*) — the CI bench gate.
baseline strips the nondeterministic fields from a BENCH_*.json, producing
         a committable baseline (rounds/messages only survive).
)";

/// One space-separated line of the catalogue's workload names
/// (congest::builtin_workload_names(), read off the catalogue table) so the
/// usage text can never go stale against what solve accepts.
std::string workload_catalogue() {
  std::string out;
  for (const std::string& name : congest::builtin_workload_names()) {
    if (!out.empty()) out += ' ';
    out += name;
  }
  return out;
}

const std::string& usage_text() {
  static const std::string text = std::string(kUsage) +
                                  "registered workloads (--workload): " +
                                  workload_catalogue() + "\n";
  return text;
}

int usage_error(const char* msg) {
  std::fprintf(stderr, "mnsctl: %s\n%s", msg, usage_text().c_str());
  return 2;
}

// ------------------------------------------------------------ arg parsing --

struct Args {
  std::vector<std::string> positional;
  std::string family;
  std::string workload;
  std::string output;
  std::string batch;
  long long size = 0;
  std::optional<unsigned> seed;
  int threads = 0;
  long long repeat = 1;
  int workers = 1;
  long long requests = 8;
  std::string partition = "workload";
  bool cold = false;
  bool baseline = false;
  int ranks = 2;
  double drop_rate = 0.0;
  double dup_rate = 0.0;
  double reorder_rate = 0.0;
  long long fault_seed = 1;
};

/// Strict numeric flag parsing: a typo'd value must exit 2, never silently
/// become 0 (which would fall back to a default shape and "succeed").
bool parse_number(const char* flag, const char* v, long long min_value,
                  long long max_value, long long& out) {
  if (v == nullptr) return false;
  char* end = nullptr;
  const long long x = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || x < min_value || x > max_value) {
    std::fprintf(stderr, "mnsctl: %s: invalid value '%s'\n", flag, v);
    return false;
  }
  out = x;
  return true;
}

/// Same strictness for real-valued flags (fault probabilities).
bool parse_real(const char* flag, const char* v, double min_value,
                double max_value, double& out) {
  if (v == nullptr) return false;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || x < min_value || x > max_value) {
    std::fprintf(stderr, "mnsctl: %s: invalid value '%s'\n", flag, v);
    return false;
  }
  out = x;
  return true;
}

bool parse_args(int argc, char** argv, int first, Args& out) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mnsctl: %s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--family") {
      const char* v = value("--family");
      if (v == nullptr) return false;
      out.family = v;
    } else if (a == "--workload") {
      const char* v = value("--workload");
      if (v == nullptr) return false;
      out.workload = v;
    } else if (a == "-o" || a == "--output") {
      const char* v = value("-o");
      if (v == nullptr) return false;
      out.output = v;
    } else if (a == "--batch") {
      const char* v = value("--batch");
      if (v == nullptr) return false;
      out.batch = v;
    } else if (a == "--size") {
      if (!parse_number("--size", value("--size"), 1, 1 << 24, out.size))
        return false;
    } else if (a == "--seed") {
      long long s = 0;
      if (!parse_number("--seed", value("--seed"), 0, 0xffffffffLL, s))
        return false;
      out.seed = static_cast<unsigned>(s);
    } else if (a == "--threads") {
      long long t = 0;
      if (!parse_number("--threads", value("--threads"), -1, 4096, t))
        return false;
      out.threads = static_cast<int>(t);
    } else if (a == "--repeat") {
      if (!parse_number("--repeat", value("--repeat"), 1, 1 << 20, out.repeat))
        return false;
    } else if (a == "--workers") {
      long long n = 0;
      if (!parse_number("--workers", value("--workers"), 1, 4096, n))
        return false;
      out.workers = static_cast<int>(n);
    } else if (a == "--requests") {
      if (!parse_number("--requests", value("--requests"), 1, 1 << 20,
                        out.requests))
        return false;
    } else if (a == "--ranks") {
      long long r = 0;
      if (!parse_number("--ranks", value("--ranks"), 1, 64, r)) return false;
      out.ranks = static_cast<int>(r);
    } else if (a == "--drop-rate") {
      if (!parse_real("--drop-rate", value("--drop-rate"), 0.0, 0.9,
                      out.drop_rate))
        return false;
    } else if (a == "--dup-rate") {
      if (!parse_real("--dup-rate", value("--dup-rate"), 0.0, 0.9,
                      out.dup_rate))
        return false;
    } else if (a == "--reorder-rate") {
      if (!parse_real("--reorder-rate", value("--reorder-rate"), 0.0, 0.9,
                      out.reorder_rate))
        return false;
    } else if (a == "--fault-seed") {
      if (!parse_number("--fault-seed", value("--fault-seed"), 1,
                        0x7fffffffffffffffLL, out.fault_seed))
        return false;
    } else if (a == "--partition") {
      const char* v = value("--partition");
      if (v == nullptr) return false;
      if (std::strcmp(v, "workload") != 0 && std::strcmp(v, "ldd") != 0) {
        std::fprintf(stderr,
                     "mnsctl: --partition: invalid value '%s' (workload|ldd)\n",
                     v);
        return false;
      }
      out.partition = v;
    } else if (a == "--cold") {
      out.cold = true;
    } else if (a == "--baseline") {
      out.baseline = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "mnsctl: unknown flag '%s'\n", a.c_str());
      return false;
    } else {
      out.positional.push_back(a);
    }
  }
  return true;
}

// ------------------------------------------------------------ subcommands --

int cmd_gen(const Args& args) {
  if (args.family.empty()) return usage_error("gen requires --family");
  if (args.output.empty()) return usage_error("gen requires -o <snapshot>");
  // The builder of the bench rows (bench_sessions' E16, bench_rounds' E15),
  // so a snapshot reproduces the bench trajectory of its family and size.
  bench::FamilyInstance inst = bench::family_instance(
      args.family, static_cast<int>(args.size), args.seed);
  io::Snapshot snap;
  snap.graph = std::move(inst.graph);
  snap.weights = std::move(inst.weights);
  snap.certificate = std::move(inst.cert);
  io::write_snapshot(snap, args.output);
  std::printf(
      "{\"command\": \"gen\", \"family\": %s, \"vertices\": %d, "
      "\"edges\": %d, \"snapshot\": %s}\n",
      io::json_quote(args.family).c_str(), snap.graph.num_vertices(),
      snap.graph.num_edges(), io::json_quote(args.output).c_str());
  return 0;
}

int cmd_build(const Args& args) {
  if (args.positional.empty()) return usage_error("build requires <snapshot>");
  const std::string& path = args.positional[0];
  const std::string out = args.output.empty() ? path : args.output;
  const std::string workload =
      args.workload.empty() ? "sssp.approx" : args.workload;

  io::Snapshot snap = io::read_snapshot(path);
  std::vector<Weight> weights = snap.weights;
  congest::Session session = congest::Session::restore(std::move(snap));
  congest::WorkloadParams params =
      bench::workload_params(session.graph(), weights);
  congest::SolveOptions opt;
  opt.threads = args.threads;
  congest::RunReport report = session.solve(workload, params, opt);
  session.save(out, std::move(weights));
  std::printf(
      "{\"command\": \"build\", \"workload\": %s, "
      "\"charged_construction_rounds\": %lld, \"rounds\": %lld, "
      "\"cached_shortcuts\": %zu, \"snapshot\": %s}\n",
      io::json_quote(workload).c_str(), report.charged_construction_rounds,
      report.rounds, session.cache_size(), io::json_quote(out).c_str());
  return 0;
}

// ------------------------------------------------------------------ update --

io::JsonValue parse_file(const std::string& path);  // defined with diff below

/// Endpoint-addressed edge lookup: batch files name edges {u, v}, never raw
/// edge ids (ids are an artifact of CSR order and change across updates).
EdgeId resolve_edge(const Graph& g, long long u, long long v,
                    const char* what) {
  if (u < 0 || u >= g.num_vertices() || v < 0 || v >= g.num_vertices())
    throw std::invalid_argument(std::string("update: ") + what +
                                " endpoint out of range");
  const EdgeId e = g.find_edge(static_cast<VertexId>(u),
                               static_cast<VertexId>(v));
  if (e == kInvalidEdge)
    throw std::invalid_argument(std::string("update: ") + what + " edge {" +
                                std::to_string(u) + ", " + std::to_string(v) +
                                "} not in the graph");
  return e;
}

long long batch_int(const io::JsonValue& obj, const char* key,
                    const char* what, bool required, long long fallback) {
  const io::JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required)
      throw std::invalid_argument(std::string("update: ") + what +
                                  " entry is missing '" + key + "'");
    return fallback;
  }
  if (v->kind != io::JsonValue::Kind::kNumber)
    throw std::invalid_argument(std::string("update: ") + what + " '" + key +
                                "' must be a number");
  return static_cast<long long>(v->number);
}

const std::vector<io::JsonValue>& batch_array(const io::JsonValue& v,
                                              const std::string& key) {
  if (v.kind != io::JsonValue::Kind::kArray)
    throw std::invalid_argument("update: '" + key + "' must be an array");
  return v.items;
}

/// Parses the documented edit-batch schema against the CURRENT graph.
UpdateBatch parse_batch(const io::JsonValue& doc, const Graph& g) {
  if (doc.kind != io::JsonValue::Kind::kObject)
    throw std::invalid_argument("update: batch document must be an object");
  UpdateBatch batch;
  for (const auto& [key, value] : doc.members) {
    if (key == "set_weight") {
      for (const io::JsonValue& item : batch_array(value, key))
        batch.weight_changes.push_back(WeightChange{
            resolve_edge(g, batch_int(item, "u", "set_weight", true, 0),
                         batch_int(item, "v", "set_weight", true, 0),
                         "set_weight"),
            static_cast<Weight>(
                batch_int(item, "weight", "set_weight", true, 0))});
    } else if (key == "insert_edges") {
      // Endpoints live in the extended old id space: >= n addresses the
      // batch's own new vertices, so no graph-side validation here
      // (apply_delta bounds-checks against n + add_vertices).
      for (const io::JsonValue& item : batch_array(value, key))
        batch.insert_edges.push_back(EdgeInsert{
            static_cast<VertexId>(
                batch_int(item, "u", "insert_edges", true, 0)),
            static_cast<VertexId>(
                batch_int(item, "v", "insert_edges", true, 0)),
            static_cast<Weight>(
                batch_int(item, "weight", "insert_edges", false, 1))});
    } else if (key == "remove_edges") {
      for (const io::JsonValue& item : batch_array(value, key))
        batch.remove_edges.push_back(
            resolve_edge(g, batch_int(item, "u", "remove_edges", true, 0),
                         batch_int(item, "v", "remove_edges", true, 0),
                         "remove_edges"));
    } else if (key == "remove_vertices") {
      for (const io::JsonValue& item : batch_array(value, key)) {
        if (item.kind != io::JsonValue::Kind::kNumber)
          throw std::invalid_argument(
              "update: 'remove_vertices' entries must be numbers");
        batch.remove_vertices.push_back(
            static_cast<VertexId>(item.number));
      }
    } else if (key == "add_vertices") {
      if (value.kind != io::JsonValue::Kind::kNumber)
        throw std::invalid_argument("update: 'add_vertices' must be a number");
      batch.add_vertices = static_cast<VertexId>(value.number);
    } else {
      throw std::invalid_argument("update: unknown batch key '" + key + "'");
    }
  }
  return batch;
}

int cmd_update(const Args& args) {
  if (args.positional.empty()) return usage_error("update requires <snapshot>");
  if (args.batch.empty())
    return usage_error("update requires --batch <edits.json>");
  const std::string& path = args.positional[0];
  const std::string out = args.output.empty() ? path : args.output;

  io::Snapshot snap = io::read_snapshot(path);
  std::vector<Weight> weights = snap.weights;
  congest::Session session = congest::Session::restore(std::move(snap));
  const UpdateBatch batch = parse_batch(parse_file(args.batch),
                                        session.graph());

  const congest::UpdateStats stats = session.update(batch, &weights);
  session.save(out, std::move(weights));
  std::printf(
      "{\"command\": \"update\", \"snapshot\": %s, \"structural\": %s, "
      "\"vertices\": %d, \"edges\": %d, \"entries_kept\": %zu, "
      "\"entries_invalidated\": %zu, \"subpaths_rebuilt\": %zu, "
      "\"cached_shortcuts\": %zu}\n",
      io::json_quote(out).c_str(), stats.structural ? "true" : "false",
      session.graph().num_vertices(), session.graph().num_edges(),
      stats.entries_kept, stats.entries_invalidated, stats.subpaths_rebuilt,
      session.cache_size());
  return 0;
}

int cmd_solve(const Args& args) {
  if (args.positional.empty()) return usage_error("solve requires <snapshot>");
  if (args.workload.empty()) return usage_error("solve requires --workload");
  // Name check BEFORE the snapshot is read: a typo'd workload fails fast
  // with the registered catalogue, not after seconds of restore work.
  const std::vector<std::string>& names = congest::builtin_workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    const std::string msg = "unknown workload '" + args.workload + "'";
    return usage_error(msg.c_str());
  }

  io::Snapshot snap = io::read_snapshot(args.positional[0]);
  std::vector<Weight> weights = snap.weights;
  congest::Session session = congest::Session::restore(std::move(snap));
  congest::WorkloadParams params =
      bench::workload_params(session.graph(), std::move(weights));
  congest::SolveOptions opt;
  opt.threads = args.threads;
  opt.use_cache = !args.cold;
  if (args.partition == "ldd")
    opt.partition = congest::PartitionSource::kLdd;
  std::string json;
  if (args.repeat <= 1) {
    json = io::run_report_to_json(session.solve(args.workload, params, opt));
  } else {
    // K repeats through ONE session: the first run may build, the rest hit
    // the cache. The wrapper records the exercised knobs alongside all K
    // canonical reports.
    json = "{\"command\": \"solve\", \"workload\": " +
           io::json_quote(args.workload) +
           ", \"threads\": " + std::to_string(args.threads) +
           ", \"repeat\": " + std::to_string(args.repeat) + ", \"reports\": [";
    for (long long k = 0; k < args.repeat; ++k) {
      if (k) json += ", ";
      json += io::run_report_to_json(session.solve(args.workload, params, opt));
    }
    json += "]}";
  }
  if (args.output.empty()) {
    std::printf("%s\n", json.c_str());
    return 0;
  }
  std::ofstream f(args.output);
  f << json << '\n';
  f.close();
  if (!f) {
    std::fprintf(stderr, "mnsctl: cannot write '%s'\n", args.output.c_str());
    return 2;
  }
  return 0;
}

// ------------------------------------------------------------------ serve --

int cmd_serve(const Args& args) {
  if (args.positional.empty()) return usage_error("serve requires <snapshot>");
  const std::string workload =
      args.workload.empty() ? "sssp.approx" : args.workload;

  io::Snapshot snap = io::read_snapshot(args.positional[0]);
  std::vector<Weight> weights = snap.weights;
  serve::ServerConfig cfg;
  cfg.workers = args.workers;
  auto core = congest::SolverCore::restore(std::move(snap), cfg.core);
  serve::QueryServer server(core, cfg);

  const Graph& g = server.core().graph();
  congest::WorkloadParams params =
      bench::workload_params(g, std::move(weights));
  std::vector<serve::Request> batch;
  batch.reserve(static_cast<std::size_t>(args.requests));
  const VertexId stride =
      g.num_vertices() / static_cast<VertexId>(
                             std::min<long long>(args.requests, 64)) +
      1;
  for (long long i = 0; i < args.requests; ++i) {
    serve::Request r;
    r.workload = workload;
    r.params = params;
    r.params.source =
        static_cast<VertexId>((static_cast<long long>(stride) * i) %
                              g.num_vertices());
    r.options.threads = args.threads;
    batch.push_back(std::move(r));
  }

  std::ofstream file;
  if (!args.output.empty()) {
    file.open(args.output);
    if (!file.good()) {
      std::fprintf(stderr, "mnsctl: cannot write '%s'\n", args.output.c_str());
      return 2;
    }
  }
  std::ostream* out = args.output.empty() ? nullptr : &file;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<serve::Response> responses = server.serve(batch);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  // Emit in REQUEST order (serve() indexes responses by request, but
  // completion order is scheduling-dependent), tagging each line with its
  // request index so consumers can join responses back to requests.
  long long errors = 0;
  std::vector<double> lat;
  lat.reserve(responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const serve::Response& r = responses[i];
    const std::string body = serve::response_to_json(r);
    const std::string line =
        "{\"request\": " + std::to_string(i) + ", " + body.substr(1);
    if (out != nullptr)
      *out << line << '\n';
    else
      std::printf("%s\n", line.c_str());
    if (!r.ok()) ++errors;
    lat.push_back(r.report.wall_ms);
  }
  std::sort(lat.begin(), lat.end());
  auto pct = [&](double p) {
    if (lat.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(lat.size() - 1) + 0.5);
    return lat[std::min(idx, lat.size() - 1)];
  };
  const double qps =
      wall_ms > 0.0
          ? static_cast<double>(responses.size()) * 1000.0 / wall_ms
          : 0.0;
  std::printf(
      "{\"command\": \"serve\", \"workload\": %s, \"workers\": %d, "
      "\"requests\": %zu, \"errors\": %lld, \"qps\": %.1f, "
      "\"p50_wall_ms\": %.3f, \"p99_wall_ms\": %.3f}\n",
      io::json_quote(workload).c_str(), args.workers, responses.size(),
      errors, qps, pct(0.50), pct(0.99));
  if (out != nullptr) {
    file.close();
    if (!file) {
      std::fprintf(stderr, "mnsctl: write error on '%s'\n",
                   args.output.c_str());
      return 2;
    }
  }
  return errors == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- dist --

/// FNV digest of the canonical report JSON with the wall clock zeroed —
/// what the replicas all-gather to prove they computed the SAME answer.
std::uint64_t report_digest(congest::RunReport report) {
  report.wall_ms = 0.0;
  io::Fnv64 fnv;
  const std::string json = io::run_report_to_json(report);
  fnv.mix_bytes({reinterpret_cast<const std::uint8_t*>(json.data()),
                 json.size()});
  return fnv.value();
}

/// One rank's whole life: restore the replica, wire the transport, solve in
/// lock-step, cross-check digests, and (rank 0 only) emit the canonical
/// report. Runs in the parent (rank 0) or a forked child (ranks 1..N-1).
int run_dist_rank(const Args& args, const std::string& workload, int rank,
                  std::vector<std::unique_ptr<transport::UdpTransport>> sockets,
                  const std::vector<transport::PeerAddress>& peers) {
  io::Snapshot snap = io::read_snapshot(args.positional[0]);
  std::vector<Weight> weights = snap.weights;
  congest::Session session = congest::Session::restore(std::move(snap));

  sockets[static_cast<std::size_t>(rank)]->set_peers(peers);
  std::unique_ptr<transport::DatagramTransport> net =
      std::move(sockets[static_cast<std::size_t>(rank)]);
  sockets.clear();  // drop the other ranks' inherited sockets
  transport::FaultConfig faults;
  faults.drop_rate = args.drop_rate;
  faults.dup_rate = args.dup_rate;
  faults.reorder_rate = args.reorder_rate;
  if (faults.active()) {
    faults.seed = transport::fault_seed_for_rank(
        static_cast<std::uint64_t>(args.fault_seed), rank);
    net = std::make_unique<transport::FaultInjectingTransport>(std::move(net),
                                                               faults);
  }
  transport::SocketTransportConfig cfg;
  cfg.rank = rank;
  cfg.ranks = args.ranks;
  transport::SocketTransport transport(session.graph(), cfg, std::move(net));

  // Handshake: every replica must have restored the same instance shape
  // before any round traffic flows.
  const std::uint64_t shape =
      (static_cast<std::uint64_t>(session.graph().num_vertices()) << 32) ^
      static_cast<std::uint64_t>(session.graph().num_edges());
  for (const std::uint64_t v : transport.all_gather(1, shape))
    if (v != shape) {
      std::fprintf(stderr,
                   "mnsctl dist rank %d: peers restored a different "
                   "instance (handshake mismatch)\n",
                   rank);
      return 2;
    }

  congest::WorkloadParams params =
      bench::workload_params(session.graph(), std::move(weights));
  congest::SolveOptions opt;
  opt.threads = args.threads;
  session.set_transport(&transport);
  congest::RunReport report = session.solve(workload, params, opt);
  session.set_transport(nullptr);

  const std::uint64_t digest = report_digest(report);
  bool identical = true;
  for (const std::uint64_t v : transport.all_gather(2, digest))
    if (v != digest) identical = false;
  // Completion barrier: everyone learns everyone's verdict, so all ranks
  // agree on the exit code before the links go quiet.
  bool all_ok = identical;
  for (const std::uint64_t v :
       transport.all_gather(3, identical ? 1 : 0))
    if (v == 0) all_ok = false;
  transport.shutdown();
  if (!all_ok) {
    std::fprintf(stderr,
                 "mnsctl dist rank %d: replica reports diverged (digest "
                 "mismatch)\n",
                 rank);
    return 1;
  }
  if (rank != 0) return 0;

  // Rank 0 emits the canonical RunReport — the SAME document `mnsctl solve`
  // emits, so `mnsctl diff --baseline solve.json dist.json` gates parity.
  const std::string json = io::run_report_to_json(report);
  if (!args.output.empty()) {
    std::ofstream f(args.output);
    f << json << '\n';
    f.close();
    if (!f) {
      std::fprintf(stderr, "mnsctl: cannot write '%s'\n",
                   args.output.c_str());
      return 2;
    }
  } else {
    std::printf("%s\n", json.c_str());
  }
  const transport::TransportStats st = transport.stats();
  std::printf(
      "{\"command\": \"dist\", \"workload\": %s, \"ranks\": %d, "
      "\"rounds\": %lld, \"messages\": %lld, \"rounds_exchanged\": %lld, "
      "\"wire_records\": %lld, \"datagrams_sent\": %lld, "
      "\"retransmits\": %lld, \"replicas_identical\": true}\n",
      io::json_quote(workload).c_str(), args.ranks, report.rounds,
      report.messages, st.rounds_exchanged, st.wire_records,
      st.datagrams_sent, st.retransmits);
  return 0;
}

int cmd_dist(const Args& args) {
  if (args.positional.empty()) return usage_error("dist requires <snapshot>");
  if (args.workload.empty()) return usage_error("dist requires --workload");
  {
    // Probe the snapshot BEFORE forking: a bad path should fail once with
    // one message, not once per rank.
    std::ifstream probe(args.positional[0], std::ios::binary);
    if (!probe.good()) {
      std::fprintf(stderr, "mnsctl: cannot read '%s'\n",
                   args.positional[0].c_str());
      return 2;
    }
  }
  // Bind every rank's socket before forking, so the full port table is
  // known to every process without a rendezvous service.
  std::vector<std::unique_ptr<transport::UdpTransport>> sockets;
  std::vector<transport::PeerAddress> peers;
  sockets.reserve(static_cast<std::size_t>(args.ranks));
  peers.reserve(static_cast<std::size_t>(args.ranks));
  for (int r = 0; r < args.ranks; ++r) {
    sockets.push_back(
        std::make_unique<transport::UdpTransport>("127.0.0.1", 0));
    peers.push_back(transport::PeerAddress{"127.0.0.1",
                                           sockets.back()->port()});
  }
  const std::string workload = args.workload;
  std::vector<pid_t> children;
  children.reserve(static_cast<std::size_t>(args.ranks - 1));
  std::fflush(nullptr);  // nothing of the parent's buffers leaks into kids
  for (int r = 1; r < args.ranks; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "mnsctl dist: fork failed\n");
      for (const pid_t kid : children) ::kill(kid, SIGKILL);
      return 2;
    }
    if (pid == 0) {
      int rc = 2;
      try {
        rc = run_dist_rank(args, workload, r, std::move(sockets), peers);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mnsctl dist rank %d: %s\n", r, e.what());
      }
      std::fflush(nullptr);
      std::_Exit(rc);  // no static destructors in the forked replica
    }
    children.push_back(pid);
  }
  int rc = 2;
  try {
    rc = run_dist_rank(args, workload, 0, std::move(sockets), peers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mnsctl dist rank 0: %s\n", e.what());
  }
  for (const pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status))
      rc = std::max(rc, 2);
    else
      rc = std::max(rc, WEXITSTATUS(status));
  }
  return rc;
}

/// Estimated heap bytes of the certificate's payload (the variant's vector
/// contents; the inline variant storage itself is negligible).
long long certificate_bytes(const StructuralCertificate& cert) {
  struct Visitor {
    long long operator()(const UniformCertificate&) const { return 0; }
    long long operator()(const TreewidthCertificate& c) const {
      const TreeDecomposition& td = c.decomposition;
      long long bytes = static_cast<long long>(td.num_bags()) *
                        static_cast<long long>(2 * sizeof(BagId));
      for (BagId b = 0; b < td.num_bags(); ++b)
        bytes += static_cast<long long>(td.bag(b).size() * sizeof(VertexId)) +
                 static_cast<long long>(td.children(b).size() * sizeof(BagId));
      return bytes;
    }
    long long operator()(const ApexCertificate& c) const {
      return static_cast<long long>(c.apices.size() * sizeof(VertexId));
    }
    long long operator()(const CliqueSumCertificate& c) const {
      const CliqueSumDecomposition& d = c.decomposition;
      long long bytes = static_cast<long long>(d.num_bags()) *
                        static_cast<long long>(2 * sizeof(BagId));
      for (BagId b = 0; b < d.num_bags(); ++b)
        bytes += static_cast<long long>(
            (d.bag_vertices(b).size() + d.parent_clique(b).size()) *
                sizeof(VertexId) +
            d.bag_edges(b).size() * sizeof(EdgeId) +
            d.children(b).size() * sizeof(BagId));
      for (const auto& apices : c.bag_apices)
        bytes += static_cast<long long>(apices.size() * sizeof(VertexId));
      return bytes;
    }
  };
  return std::visit(Visitor{}, cert);
}

int cmd_inspect(const Args& args) {
  if (args.positional.empty())
    return usage_error("inspect requires <snapshot>");
  io::Snapshot snap = io::read_snapshot(args.positional[0]);

  // Estimated in-memory footprint of the restored session, section by
  // section (DESIGN.md §9). Array payloads only — allocator slack and small
  // struct headers are noise at the scales where this number matters.
  const long long n = snap.graph.num_vertices();
  const long long m = snap.graph.num_edges();
  // CSR graph: Edge records + offsets + two half-edge arrays (2m entries).
  const long long graph_bytes =
      m * static_cast<long long>(sizeof(Edge)) +
      (n + 1) * static_cast<long long>(sizeof(std::size_t)) +
      2 * m *
          static_cast<long long>(sizeof(VertexId) + sizeof(EdgeId));
  const long long weight_bytes =
      static_cast<long long>(snap.weights.size() * sizeof(Weight));
  const long long cert_bytes = certificate_bytes(snap.certificate);
  const long long tree_bytes =
      snap.tree ? static_cast<long long>(
                      snap.tree->parent.size() * sizeof(VertexId) +
                      snap.tree->parent_edge.size() * sizeof(EdgeId))
                : 0;
  long long cache_bytes = 0;
  for (const io::CachedShortcut& cs : snap.shortcuts) {
    cache_bytes += static_cast<long long>(cs.part_of.size() * sizeof(PartId));
    for (const auto& part : cs.shortcut.edges_of_part)
      cache_bytes += static_cast<long long>(part.size() * sizeof(EdgeId));
  }
  const long long total_bytes =
      graph_bytes + weight_bytes + cert_bytes + tree_bytes + cache_bytes;

  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"command\": \"inspect\", \"snapshot\": %s, \"version\": %u, "
      "\"vertices\": %d, \"edges\": %d, \"weights\": %zu, "
      "\"certificate\": %s, \"tree\": %s, \"cached_shortcuts\": %zu",
      io::json_quote(args.positional[0]).c_str(), snap.version,
      snap.graph.num_vertices(), snap.graph.num_edges(), snap.weights.size(),
      io::json_quote(builder_name_for(snap.certificate)).c_str(),
      snap.tree ? "true" : "false", snap.shortcuts.size());
  std::string json = buf;
  if (snap.history.any()) {
    std::snprintf(buf, sizeof buf,
                  ", \"history\": {\"updates_applied\": %llu, "
                  "\"entries_kept\": %llu, \"entries_invalidated\": %llu, "
                  "\"subpaths_rebuilt\": %llu}",
                  static_cast<unsigned long long>(snap.history.updates_applied),
                  static_cast<unsigned long long>(snap.history.entries_kept),
                  static_cast<unsigned long long>(
                      snap.history.entries_invalidated),
                  static_cast<unsigned long long>(
                      snap.history.subpaths_rebuilt));
    json += buf;
  }
  // Per-entry cache identity, MRU first: the SAME fingerprint the restored
  // core will key the entry under (seed_cache derives num_parts the same
  // way), so operators can correlate snapshots with live cache behavior.
  json += ", \"cache_entries\": [";
  for (std::size_t i = 0; i < snap.shortcuts.size(); ++i) {
    const io::CachedShortcut& cs = snap.shortcuts[i];
    PartId num_parts = 0;
    for (const PartId p : cs.part_of)
      num_parts = std::max(num_parts, static_cast<PartId>(p + 1));
    const std::uint64_t fp = congest::SolverCore::partition_fingerprint(
        num_parts, cs.part_of);
    std::snprintf(buf, sizeof buf,
                  "%s{\"mru_rank\": %zu, \"num_parts\": %d, "
                  "\"fingerprint\": \"0x%016llx\"}",
                  i ? ", " : "", i, num_parts,
                  static_cast<unsigned long long>(fp));
    json += buf;
  }
  json += "]";
  std::snprintf(
      buf, sizeof buf,
      ", \"footprint\": {\"graph_bytes\": %lld, \"weight_bytes\": %lld, "
      "\"certificate_bytes\": %lld, \"tree_bytes\": %lld, "
      "\"cache_bytes\": %lld, \"total_bytes\": %lld}}",
      graph_bytes, weight_bytes, cert_bytes, tree_bytes, cache_bytes,
      total_bytes);
  json += buf;
  std::printf("%s\n", json.c_str());
  return 0;
}

// ------------------------------------------------------------------ diff --

/// Fields that legitimately differ between two runs of the same code: wall
/// clock and machine shape. Everything else in our artifacts is
/// deterministic and gated.
bool is_volatile_key(const std::string& key) {
  return key == "wall_time_ms" || key == "hardware_concurrency" ||
         key == "peak_rss_bytes" || key == "qps" ||
         // A ratio of two wall clocks (E17's threads = 1 time over this
         // width's), as volatile as the clocks themselves.
         key == "speedup" ||
         // Transport delivery counters depend on timing and injected faults
         // (DESIGN.md §11); the deterministic transport fields
         // (rounds_exchanged, wire_records) stay gated.
         key == "retransmits" || key == "datagrams_sent" ||
         key == "datagrams_received" || key == "acks_sent" ||
         key == "datagrams_rejected" ||
         key.rfind("faults_", 0) == 0 ||
         key.find("wall_ms") != std::string::npos;
}

std::string scalar_repr(const io::JsonValue& v) { return v.render(); }

bool scalars_equal(const io::JsonValue& a, const io::JsonValue& b) {
  using Kind = io::JsonValue::Kind;
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kNull: return true;
    case Kind::kBool: return a.boolean == b.boolean;
    case Kind::kString: return a.text == b.text;
    case Kind::kNumber:
      // Raw lexeme first (what was written); double fallback tolerates
      // equivalent renderings like 1.5 vs 1.50.
      return a.text == b.text || a.number == b.number;
    default: return false;
  }
}

void diff_values(const io::JsonValue& a, const io::JsonValue& b,
                 const std::string& path, bool baseline,
                 std::vector<std::string>& drifts) {
  using Kind = io::JsonValue::Kind;
  if (a.kind == Kind::kObject && b.kind == Kind::kObject) {
    for (const auto& [key, av] : a.members) {
      if (baseline && is_volatile_key(key)) continue;
      const io::JsonValue* bv = b.find(key);
      const std::string sub = path.empty() ? key : path + "." + key;
      if (bv == nullptr) {
        drifts.push_back(sub + ": missing in candidate");
        continue;
      }
      diff_values(av, *bv, sub, baseline, drifts);
    }
    if (!baseline) {  // strict mode: extra fields are drift too
      for (const auto& [key, bv] : b.members)
        if (a.find(key) == nullptr)
          drifts.push_back((path.empty() ? key : path + "." + key) +
                           ": missing in first document");
    }
    return;
  }
  if (a.kind == Kind::kArray && b.kind == Kind::kArray) {
    if (a.items.size() != b.items.size())
      drifts.push_back(path + ": length " + std::to_string(a.items.size()) +
                       " vs " + std::to_string(b.items.size()));
    const std::size_t common = std::min(a.items.size(), b.items.size());
    for (std::size_t i = 0; i < common; ++i)
      diff_values(a.items[i], b.items[i],
                  path + "[" + std::to_string(i) + "]", baseline, drifts);
    return;
  }
  if (!scalars_equal(a, b))
    drifts.push_back(path + ": " + scalar_repr(a) + " vs " + scalar_repr(b));
}

io::JsonValue parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    throw io::JsonError("cannot open '" + path + "' for reading");
  std::stringstream buf;
  buf << in.rdbuf();
  return io::parse_json(buf.str());
}

int cmd_diff(const Args& args) {
  if (args.positional.size() != 2)
    return usage_error("diff requires <a.json> <b.json>");
  io::JsonValue a = parse_file(args.positional[0]);
  io::JsonValue b = parse_file(args.positional[1]);
  std::vector<std::string> drifts;
  diff_values(a, b, "", args.baseline, drifts);
  if (drifts.empty()) {
    std::printf("mnsctl diff: %s == %s (%s)\n", args.positional[0].c_str(),
                args.positional[1].c_str(),
                args.baseline ? "baseline fields" : "all fields");
    return 0;
  }
  std::fprintf(stderr, "mnsctl diff: %zu field(s) drifted (%s vs %s):\n",
               drifts.size(), args.positional[0].c_str(),
               args.positional[1].c_str());
  for (const std::string& d : drifts)
    std::fprintf(stderr, "  %s\n", d.c_str());
  return 1;
}

// -------------------------------------------------------------- baseline --

io::JsonValue strip_volatile(const io::JsonValue& v) {
  io::JsonValue out = v;
  if (v.kind == io::JsonValue::Kind::kObject) {
    out.members.clear();
    for (const auto& [key, value] : v.members) {
      if (is_volatile_key(key)) continue;
      out.members.emplace_back(key, strip_volatile(value));
    }
  } else if (v.kind == io::JsonValue::Kind::kArray) {
    out.items.clear();
    for (const io::JsonValue& item : v.items)
      out.items.push_back(strip_volatile(item));
  }
  return out;
}

/// Renders a stripped BENCH document with one row per line (reviewable git
/// diffs); any other shape falls back to the compact canonical render.
std::string render_baseline(const io::JsonValue& v) {
  const io::JsonValue* rows = v.find("rows");
  if (v.kind != io::JsonValue::Kind::kObject || rows == nullptr ||
      rows->kind != io::JsonValue::Kind::kArray)
    return v.render() + "\n";
  std::string out = "{\n";
  bool first = true;
  for (const auto& [key, value] : v.members) {
    if (!first) out += ",\n";
    first = false;
    if (&value == rows) {
      out += "  \"rows\": [\n";
      for (std::size_t i = 0; i < rows->items.size(); ++i) {
        out += "    " + rows->items[i].render();
        if (i + 1 < rows->items.size()) out += ',';
        out += '\n';
      }
      out += "  ]";
    } else {
      out += "  " + io::json_quote(key) + ": " + value.render();
    }
  }
  out += "\n}\n";
  return out;
}

int cmd_baseline(const Args& args) {
  if (args.positional.empty())
    return usage_error("baseline requires <in.json>");
  if (args.output.empty()) return usage_error("baseline requires -o <out>");
  io::JsonValue stripped = strip_volatile(parse_file(args.positional[0]));
  std::ofstream f(args.output);
  f << render_baseline(stripped);
  f.close();
  if (!f) {
    std::fprintf(stderr, "mnsctl: cannot write '%s'\n", args.output.c_str());
    return 2;
  }
  std::printf("mnsctl baseline: %s -> %s (volatile fields stripped)\n",
              args.positional[0].c_str(), args.output.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error("missing subcommand");
  const std::string cmd = argv[1];
  Args args;
  // Every malformed invocation behaves identically: the specific complaint
  // (already on stderr from the parser), then the usage block, then exit 2 —
  // same shape as unknown subcommands and missing arguments (pinned by
  // tests/test_mnsctl_cli.cpp).
  if (!parse_args(argc, argv, 2, args)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "build") return cmd_build(args);
    if (cmd == "update") return cmd_update(args);
    if (cmd == "solve") return cmd_solve(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "dist") return cmd_dist(args);
    if (cmd == "inspect") return cmd_inspect(args);
    if (cmd == "diff") return cmd_diff(args);
    if (cmd == "baseline") return cmd_baseline(args);
    return usage_error(("unknown subcommand '" + cmd + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mnsctl %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
}
