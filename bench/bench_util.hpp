// Shared helpers for the experiment harnesses (DESIGN.md §6). Each bench
// binary answers one question with a self-contained table; they are
// deterministic (fixed seeds), so bench/baselines/ can pin their rows.
//
// Workload traffic goes through congest::Session (the one solver API;
// shortcut construction dispatches on its certificate through ShortcutEngine
// + cache). The exceptions measure a construction on its own:
// bench_shortcuts builds through ShortcutEngine directly, and the fully
// distributed construction (E13's last row, E14) runs
// distributed_capped_greedy on a bare Simulator. Alongside the
// human-readable table every harness records a machine-readable
// BENCH_<name>.json. Every row that reports rounds also reports
// messages_sent, so the JSON captures congestion, not just round counts.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "congest/session.hpp"
#include "core/shortcut_engine.hpp"
#include "graph/algorithms.hpp"
#include "graph/rooted_tree.hpp"
#include "io/json.hpp"

namespace mns::bench {

/// Peak resident set size of this process, in bytes (getrusage ru_maxrss;
/// Linux reports KiB, macOS bytes). 0 when the platform has no getrusage.
/// Monotone over the process lifetime — a row records the high-water mark up
/// to the moment it was emitted, which is what the DESIGN.md §9 peak-RSS
/// budgets are stated against.
[[nodiscard]] inline long long peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<long long>(ru.ru_maxrss);
#else
  return static_cast<long long>(ru.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

/// A Session over a copy of `g` with the given structural knowledge, rooted
/// on a center BFS tree — the standard harness entry point.
inline congest::Session make_session(const Graph& g, StructuralCertificate cert,
                                     unsigned tree_seed = 1) {
  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(tree_seed);
  return congest::Session(g, std::move(cert), std::move(cfg));
}

inline void header(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

// ------------------------------------------------------------------------
// Machine-readable output: BENCH_<name>.json, one row object per table row.

/// One row of a JSON report; values are rendered eagerly so heterogeneous
/// rows stay simple.
class JsonRow {
 public:
  JsonRow& set(const std::string& key, long long value) {
    fields_.emplace_back(key, io::json_number(value));
    return *this;
  }
  JsonRow& set(const std::string& key, int value) {
    return set(key, static_cast<long long>(value));
  }
  JsonRow& set(const std::string& key, std::size_t value) {
    return set(key, static_cast<long long>(value));
  }
  JsonRow& set(const std::string& key, double value) {
    fields_.emplace_back(key, io::json_number(value));
    return *this;
  }
  JsonRow& set(const std::string& key, const char* value) {
    fields_.emplace_back(key, quoted(value));
    return *this;
  }
  JsonRow& set(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, quoted(value));
    return *this;
  }
  /// Standard metrics block: congestion / block / quality / d_T.
  JsonRow& set_metrics(const ShortcutMetrics& m) {
    return set("tree_diameter", m.tree_diameter)
        .set("block", m.block)
        .set("congestion", m.congestion)
        .set("quality", m.quality);
  }
  /// Standard telemetry block of one Session run: measured rounds AND
  /// messages (congestion), substitution charges, what the cache did, and
  /// the thread width the run executed at (wall_ms is only comparable
  /// across machines/trajectories alongside threads + the row's
  /// hardware_concurrency).
  JsonRow& set_run(const congest::RunReport& r) {
    return set("rounds", r.rounds)
        .set("messages", r.messages)
        .set("threads", r.threads)
        .set("charged_construction_rounds", r.charged_construction_rounds)
        .set("total_rounds", r.total_rounds())
        .set("phases", r.phases)
        .set("aggregations", r.aggregations)
        .set("cache_hits", r.cache_hits)
        .set("cache_misses", r.cache_misses)
        .set("wall_ms", r.wall_ms);
  }

  /// (key, rendered value) pairs in the order they were set; string values
  /// are JSON-quoted.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  fields() const {
    return fields_;
  }

  [[nodiscard]] std::string rendered() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += quoted(fields_[i].first) + ": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  /// JSON string escaping per RFC 8259 — the one shared implementation
  /// (io/json.hpp) every machine-readable artifact goes through; a newline
  /// or tab in a field must not produce an unparseable BENCH file.
  static std::string quoted(const std::string& s) { return io::json_quote(s); }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Collects rows and writes BENCH_<name>.json on destruction (or explicit
/// write()). Wall time covers the report's lifetime.
///
/// write() returns false on I/O failure (after warning to stderr) so a
/// harness main can exit nonzero instead of silently shipping no report —
/// CI treats a missing BENCH file as a failed run. The destructor fallback
/// necessarily swallows the status; call write() explicitly where the exit
/// code matters.
class JsonReport {
 public:
  explicit JsonReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() {
    if (!written_) (void)write();
  }

  /// Every row opens with the hardware context (the machine's concurrency
  /// width) and the process's current peak RSS, so BENCH_*.json trajectories
  /// stay comparable across machines — a wall_ms regression on a 1-core CI
  /// box is not a regression on the 16-core baseline box — and memory
  /// regressions are visible in every recorded trajectory, not only in the
  /// dedicated scale harness. Both keys are volatile for baseline diffs
  /// (mnsctl diff masks them).
  JsonRow& row() {
    rows_.emplace_back();
    rows_.back()
        .set("hardware_concurrency", hardware_concurrency())
        .set("peak_rss_bytes", peak_rss_bytes());
    return rows_.back();
  }

  [[nodiscard]] static long long hardware_concurrency() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<long long>(hw) : 1;
  }

  [[nodiscard]] bool write() {
    written_ = true;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      // Benches stay usable in read-only dirs, but never fail silently.
      std::fprintf(stderr, "bench: cannot open %s for writing; %zu row(s) dropped\n",
                   path.c_str(), rows_.size());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"wall_time_ms\": %.3f,\n",
                 name_.c_str(), wall_ms);
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i)
      std::fprintf(f, "    %s%s\n", rows_[i].rendered().c_str(),
                   i + 1 < rows_.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    const bool flushed = std::ferror(f) == 0;
    const bool closed = std::fclose(f) == 0;
    if (!flushed || !closed) {
      std::fprintf(stderr, "bench: write error on %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<JsonRow> rows_;
  bool written_ = false;
};

/// A named shortcut construction: one table row per method on an instance.
struct Method {
  const char* name;
  StructuralCertificate cert;
};

/// A new row of a multi-experiment table, tagged "experiment": `experiment`.
inline JsonRow& row(JsonReport& report, const char* experiment) {
  return report.row().set("experiment", experiment);
}

/// The one table printer: every field of the row but the machine-shape
/// ones, in the order they were set, on one line. Flushed per row, so a
/// long run shows its progress even when stdout is redirected.
inline void print(const JsonRow& r, std::FILE* out = stdout) {
  const char* sep = "";
  for (const auto& [key, value] : r.fields()) {
    if (key == "hardware_concurrency" || key == "peak_rss_bytes") continue;
    std::fprintf(out, "%s%s=%s", sep, key.c_str(), value.c_str());
    sep = "  ";
  }
  std::fputc('\n', out);
  std::fflush(out);
}

}  // namespace mns::bench
