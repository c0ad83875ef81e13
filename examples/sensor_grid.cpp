// Sensor-network scenario: a large planar sensor field where connected
// clusters (administrative zones) repeatedly compute the minimum battery
// level in their zone — exactly the part-wise aggregation subproblem of
// Definition 9, served through congest::Session. Demonstrates two things:
// how shortcut quality (Definition 13) translates into measured CONGEST
// rounds (Theorem 1's mechanism), and how the session's partition-keyed
// shortcut cache amortizes construction across the periodic re-queries a
// monitoring deployment actually issues.
//
//   $ ./examples/sensor_grid
#include <algorithm>
#include <cstdio>

#include "congest/session.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"

int main() {
  using namespace mns;

  const int rows = 48, cols = 48;
  EmbeddedGraph field = gen::grid(rows, cols);
  const Graph& g = field.graph();

  // Zones: serpentines snaking through column bands — each zone's isolated
  // diameter is Theta(rows * width), far above the grid diameter. This is
  // the grid analogue of the paper's wheel pathology.
  Partition zones = grid_serpentines(rows, cols, 6);
  std::printf("sensor field: n=%d, %d zones, graph diameter %d\n",
              g.num_vertices(), zones.num_parts(), rows + cols - 2);

  auto battery_reading = [&](int epoch) {
    std::vector<congest::AggValue> battery(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      battery[v] = {static_cast<Weight>(1000 + ((v + epoch) * 7919) % 5000),
                    v};
    return battery;
  };

  // Sequential reference: each zone's minimum reading.
  auto zone_minima = [&](const std::vector<congest::AggValue>& battery) {
    std::vector<congest::AggValue> out(zones.num_parts());
    for (PartId p = 0; p < zones.num_parts(); ++p) {
      auto members = zones.members(p);
      out[p] = battery[*std::min_element(
          members.begin(), members.end(),
          [&](VertexId a, VertexId b) { return battery[a] < battery[b]; })];
    }
    return out;
  };
  bool ok = true;

  congest::Session session(g);  // greedy certificate by default
  std::printf("%-28s %10s %10s %8s %6s %6s %6s %s\n", "variant", "rounds",
              "msgs", "quality", "b", "c", "cache", "zone minima");

  struct Variant {
    const char* name;
    bool shortcuts;
    StructuralCertificate cert;
  };
  const Variant variants[] = {
      {"no shortcuts (flooding)", false, greedy_certificate()},
      {"steiner shortcuts", true, steiner_certificate()},
      {"greedy shortcuts [HIZ16a]", true, greedy_certificate()},
  };
  for (const Variant& variant : variants) {
    session.set_certificate(variant.cert);  // invalidates the cache
    congest::SolveOptions opt;
    opt.use_shortcuts = variant.shortcuts;
    // Two monitoring sweeps with fresh readings: the second hits the
    // session's shortcut cache (same zones, same certificate).
    ShortcutMetrics m;
    if (variant.shortcuts) {
      m = session.analyze(zones).metrics;
    } else {
      m = measure_shortcut(g, session.tree(), zones, empty_shortcut(zones));
    }
    congest::RunReport sweep1 =
        session.solve(congest::Aggregate{zones, battery_reading(0)}, opt);
    congest::RunReport sweep2 =
        session.solve(congest::Aggregate{zones, battery_reading(1)}, opt);
    const bool same =
        sweep1.aggregate().min_of_part == zone_minima(battery_reading(0)) &&
        sweep2.aggregate().min_of_part == zone_minima(battery_reading(1));
    ok = ok && same;
    std::printf("%-28s %10lld %10lld %8lld %6d %6d %5lld/%lld %s\n",
                variant.name, sweep1.rounds, sweep1.messages, m.quality,
                m.block, m.congestion, sweep1.cache_hits + sweep2.cache_hits,
                sweep1.cache_misses + sweep2.cache_misses,
                same ? "verified" : "MISMATCH");
  }
  std::printf("\nEvery zone head %s its zone's minimum battery; "
              "repeat sweeps re-use the cached shortcut.\n",
              ok ? "knows" : "does NOT know");
  return ok ? 0 : 1;
}
