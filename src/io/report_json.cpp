#include "io/report_json.hpp"

#include <cinttypes>
#include <cstdio>

#include "io/fnv.hpp"
#include "io/json.hpp"

namespace mns::io {

namespace {

using congest::RunReport;

std::uint64_t digest_i64(const std::vector<std::int64_t>& v) {
  Fnv64 h;
  for (std::int64_t x : v) h.mix_i64(x);
  return h.value();
}

std::uint64_t digest_i32(const std::vector<std::int32_t>& v) {
  Fnv64 h;
  for (std::int32_t x : v) h.mix_i64(x);
  return h.value();
}

std::uint64_t digest_int(const std::vector<int>& v) {
  Fnv64 h;
  for (int x : v) h.mix_i64(x);
  return h.value();
}

std::uint64_t digest_membership(const std::vector<char>& v) {
  Fnv64 h;
  for (char x : v) h.mix_i64(x != 0 ? 1 : 0);
  return h.value();
}

std::uint64_t digest_agg(const std::vector<congest::AggValue>& v) {
  Fnv64 h;
  for (const congest::AggValue& x : v) {
    h.mix_i64(x.value);
    h.mix_i64(x.aux);
  }
  return h.value();
}

std::string hex64(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, x);
  return buf;
}

void field(std::string& out, const char* key, const std::string& rendered,
           bool first = false) {
  if (!first) out += ", ";
  out += json_quote(key) + ": " + rendered;
}

std::string payload_json(const RunReport& r) {
  std::string out = "{";
  if (const auto* mst = std::get_if<congest::MstPayload>(&r.payload)) {
    field(out, "kind", json_quote("mst"), true);
    field(out, "num_edges", json_number(
        static_cast<long long>(mst->edges.size())));
    field(out, "edges_fnv", json_quote(hex64(digest_i32(mst->edges))));
    field(out, "fragments_fnv",
          json_quote(hex64(digest_i32(mst->fragment_of))));
  } else if (const auto* cut =
                 std::get_if<congest::MinCutPayload>(&r.payload)) {
    field(out, "kind", json_quote("mincut"), true);
    field(out, "value", json_number(static_cast<long long>(cut->value)));
    field(out, "trees", json_number(static_cast<long long>(cut->trees)));
  } else if (const auto* sssp = std::get_if<congest::SsspPayload>(&r.payload)) {
    field(out, "kind", json_quote("sssp"), true);
    field(out, "num_vertices", json_number(
        static_cast<long long>(sssp->dist.size())));
    field(out, "dist_fnv", json_quote(hex64(digest_i64(sssp->dist))));
    field(out, "jumps", json_number(sssp->jumps));
  } else if (const auto* bfs = std::get_if<congest::BfsPayload>(&r.payload)) {
    field(out, "kind", json_quote("bfs"), true);
    field(out, "num_vertices", json_number(
        static_cast<long long>(bfs->dist.size())));
    field(out, "dist_fnv", json_quote(hex64(digest_int(bfs->dist))));
    field(out, "parent_fnv", json_quote(hex64(digest_i32(bfs->parent))));
  } else if (const auto* agg =
                 std::get_if<congest::AggregatePayload>(&r.payload)) {
    field(out, "kind", json_quote("aggregate"), true);
    field(out, "num_parts", json_number(
        static_cast<long long>(agg->min_of_part.size())));
    field(out, "min_fnv", json_quote(hex64(digest_agg(agg->min_of_part))));
  } else if (const auto* mis = std::get_if<congest::MisPayload>(&r.payload)) {
    field(out, "kind", json_quote("mis"), true);
    field(out, "num_vertices", json_number(
        static_cast<long long>(mis->in_mis.size())));
    field(out, "size", json_number(static_cast<long long>(mis->size)));
    field(out, "members_fnv",
          json_quote(hex64(digest_membership(mis->in_mis))));
  } else if (const auto* ds = std::get_if<congest::DomsetPayload>(&r.payload)) {
    field(out, "kind", json_quote("domset"), true);
    field(out, "num_vertices", json_number(
        static_cast<long long>(ds->in_set.size())));
    field(out, "size", json_number(static_cast<long long>(ds->size)));
    field(out, "members_fnv",
          json_quote(hex64(digest_membership(ds->in_set))));
  } else {
    field(out, "kind", json_quote("none"), true);
  }
  out += '}';
  return out;
}

}  // namespace

std::string run_report_to_json(const RunReport& r) {
  std::string out = "{";
  field(out, "workload", json_quote(r.workload), true);
  field(out, "rounds", json_number(r.rounds));
  field(out, "messages", json_number(r.messages));
  field(out, "threads", json_number(static_cast<long long>(r.threads)));
  field(out, "charged_construction_rounds",
        json_number(r.charged_construction_rounds));
  field(out, "total_rounds", json_number(r.total_rounds()));
  field(out, "phases", json_number(static_cast<long long>(r.phases)));
  field(out, "aggregations", json_number(r.aggregations));
  field(out, "cache_hits", json_number(r.cache_hits));
  field(out, "cache_misses", json_number(r.cache_misses));
  field(out, "cache_evictions", json_number(r.cache_evictions));
  field(out, "wall_ms", json_number(r.wall_ms));
  field(out, "payload", payload_json(r));
  out += '}';
  return out;
}

bool run_reports_identical(const RunReport& a, const RunReport& b) {
  if (a.workload != b.workload || a.rounds != b.rounds ||
      a.messages != b.messages || a.threads != b.threads ||
      a.charged_construction_rounds != b.charged_construction_rounds ||
      a.phases != b.phases || a.aggregations != b.aggregations ||
      a.cache_hits != b.cache_hits || a.cache_misses != b.cache_misses ||
      a.cache_evictions != b.cache_evictions)
    return false;
  // Full payload content (the digest comparison in JSON is the same check
  // modulo FNV collisions; here we have the real data, so compare exactly).
  return a.payload == b.payload;
}

}  // namespace mns::io
