// Snapshot persistence contract (DESIGN.md §8).
//
// Two load-bearing guarantees:
//
// 1. RESTORE PARITY — for every certificate family × {mst, sssp.approx} ×
//    thread widths {1, 4}: a solve from a restored snapshot is bit-identical
//    (rounds, messages, charges, cache behavior, full payload) to the
//    in-process warm solve it mirrors, and pays ZERO construction charges —
//    the restored cache serves every partition the workload asks for.
//
// 2. CORRUPTION SAFETY — truncated files, flipped payload/checksum bytes,
//    wrong versions, and out-of-range certificate tags throw a typed
//    io::SnapshotError, never UB (CI runs this suite under ASan+UBSan).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "congest/session.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "io/json.hpp"
#include "io/report_json.hpp"
#include "io/snapshot.hpp"
#include "serve/query_server.hpp"

namespace mns {
namespace {

using congest::RunReport;
using congest::Session;

// ----------------------------------------------------------- round trips --

io::Snapshot tiny_snapshot() {
  io::Snapshot snap;
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 3);
  snap.graph = b.build();  // sorted: e0 = 01, e1 = 03, e2 = 12, e3 = 23
  snap.weights = {5, -2, 7, 1000000000000LL};
  snap.certificate = ancestor_certificate(3);
  io::TreeSnapshot ts;
  ts.root = 0;
  ts.parent = {kInvalidVertex, 0, 1, 0};
  ts.parent_edge = {kInvalidEdge, 0, 2, 1};
  snap.tree = ts;
  io::CachedShortcut entry;
  entry.part_of = {0, 0, 1, kNoPart};
  entry.shortcut.edges_of_part = {{0}, {1, 2}};
  snap.shortcuts.push_back(entry);
  return snap;
}

TEST(SnapshotRoundTrip, PreservesEverySection) {
  io::Snapshot snap = tiny_snapshot();
  io::Snapshot back = io::decode_snapshot(io::encode_snapshot(snap));
  EXPECT_EQ(back.graph.num_vertices(), 4);
  EXPECT_EQ(back.graph.edges(), snap.graph.edges());
  EXPECT_EQ(back.weights, snap.weights);
  const auto* u = std::get_if<UniformCertificate>(&back.certificate);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->kind, UniformCertificate::Kind::kAncestor);
  EXPECT_EQ(u->levels, 3);
  ASSERT_TRUE(back.tree.has_value());
  EXPECT_EQ(back.tree->root, 0);
  EXPECT_EQ(back.tree->parent, snap.tree->parent);
  EXPECT_EQ(back.tree->parent_edge, snap.tree->parent_edge);
  ASSERT_EQ(back.shortcuts.size(), 1u);
  EXPECT_EQ(back.shortcuts[0].part_of, snap.shortcuts[0].part_of);
  EXPECT_EQ(back.shortcuts[0].shortcut.edges_of_part,
            snap.shortcuts[0].shortcut.edges_of_part);
  // Canonical format: re-encoding the decoded snapshot is byte-identical.
  EXPECT_EQ(io::encode_snapshot(back), io::encode_snapshot(snap));
}

TEST(SnapshotRoundTrip, AllFourCertificateFamiliesSurvive) {
  Rng rng(7);
  std::vector<io::Snapshot> snaps;
  {  // uniform
    io::Snapshot s;
    s.graph = gen::grid(4, 4).graph();
    s.certificate = steiner_certificate();
    snaps.push_back(std::move(s));
  }
  {  // treewidth
    gen::KTreeResult kt = gen::random_ktree(30, 3, rng);
    io::Snapshot s;
    s.graph = kt.graph;
    s.certificate = treewidth_certificate(kt.decomposition);
    snaps.push_back(std::move(s));
  }
  {  // apex, non-default inner oracle
    gen::ApexResult ar = gen::add_apices(gen::grid(4, 4).graph(), 1, 0.3, rng);
    io::Snapshot s;
    s.graph = ar.graph;
    s.certificate = apex_certificate(ar.apices, OracleKind::kSteiner);
    snaps.push_back(std::move(s));
  }
  {  // clique-sum with the full Theorem 6 knobs exercised
    Graph bag = gen::triangulated_grid(3, 3).graph();
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < 3; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
    gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
    CliqueSumCertificate cert{cs.decomposition, /*fold=*/false,
                              OracleKind::kSteiner, /*apex_aware=*/true,
                              /*bag_apices=*/{{0}, {}, {1, 2}}};
    io::Snapshot s;
    s.graph = cs.graph;
    s.certificate = cert;
    snaps.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    SCOPED_TRACE(i);
    const std::vector<std::uint8_t> bytes = io::encode_snapshot(snaps[i]);
    io::Snapshot back = io::decode_snapshot(bytes);
    EXPECT_EQ(back.certificate.index(), snaps[i].certificate.index());
    EXPECT_EQ(builder_name_for(back.certificate),
              builder_name_for(snaps[i].certificate));
    // Deep equality via the canonical encoding.
    EXPECT_EQ(io::encode_snapshot(back), bytes);
  }
}

TEST(SnapshotRoundTrip, CrossSectionConsistencyIsValidated) {
  io::Snapshot snap = tiny_snapshot();
  snap.weights.pop_back();  // weights != edge count
  EXPECT_THROW((void)io::decode_snapshot(io::encode_snapshot(snap)),
               io::SnapshotError);

  snap = tiny_snapshot();
  snap.tree->parent.push_back(0);  // tree size != n
  snap.tree->parent_edge.push_back(kInvalidEdge);
  EXPECT_THROW((void)io::decode_snapshot(io::encode_snapshot(snap)),
               io::SnapshotError);

  snap = tiny_snapshot();
  snap.shortcuts[0].shortcut.edges_of_part[0] = {99};  // edge out of range
  EXPECT_THROW((void)io::decode_snapshot(io::encode_snapshot(snap)),
               io::SnapshotError);

  // Certificate ids are cross-checked too — a hostile apex/bag id must die
  // at decode, not as an OOB write inside a builder (the "never UB" half of
  // the format contract).
  snap = tiny_snapshot();
  snap.certificate = apex_certificate({1000});
  EXPECT_THROW((void)io::decode_snapshot(io::encode_snapshot(snap)),
               io::SnapshotError);

  // A part id at INT32_MAX must be rejected outright (n-bound), not fed
  // into the restore fingerprint where p + 1 would overflow.
  snap = tiny_snapshot();
  snap.shortcuts[0].part_of = {0, 0, INT32_MAX, kNoPart};
  EXPECT_THROW((void)io::decode_snapshot(io::encode_snapshot(snap)),
               io::SnapshotError);

  // Shortcut part count must match the partition's part count exactly.
  snap = tiny_snapshot();
  snap.shortcuts[0].shortcut.edges_of_part.push_back({});  // 3 parts vs 2
  EXPECT_THROW((void)io::decode_snapshot(io::encode_snapshot(snap)),
               io::SnapshotError);
}

// ------------------------------------------------------ corruption suite --

std::uint64_t read_u64_le(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i)
    x |= static_cast<std::uint64_t>(b[at + static_cast<std::size_t>(i)])
         << (8 * i);
  return x;
}
void write_u32_le(std::vector<std::uint8_t>& b, std::size_t at,
                  std::uint32_t x) {
  for (int i = 0; i < 4; ++i)
    b[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((x >> (8 * i)) & 0xffu);
}
void write_u64_le(std::vector<std::uint8_t>& b, std::size_t at,
                  std::uint64_t x) {
  for (int i = 0; i < 8; ++i)
    b[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((x >> (8 * i)) & 0xffu);
}
std::uint64_t fnv_of(const std::vector<std::uint8_t>& b, std::size_t off,
                     std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= b[off + i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Walks the container frame: offset of each section's tag / payload /
/// checksum (mirrors the documented format, independently of the decoder).
struct SectionLoc {
  std::uint32_t tag = 0;
  std::size_t payload_off = 0;
  std::size_t payload_size = 0;
  std::size_t checksum_off = 0;
};
std::vector<SectionLoc> locate_sections(const std::vector<std::uint8_t>& b) {
  std::vector<SectionLoc> out;
  std::size_t pos = 16;  // magic(8) + version(4) + count(4)
  while (pos < b.size()) {
    SectionLoc loc;
    loc.tag = static_cast<std::uint32_t>(b[pos]) |
              (static_cast<std::uint32_t>(b[pos + 1]) << 8) |
              (static_cast<std::uint32_t>(b[pos + 2]) << 16) |
              (static_cast<std::uint32_t>(b[pos + 3]) << 24);
    loc.payload_size = static_cast<std::size_t>(read_u64_le(b, pos + 4));
    loc.payload_off = pos + 12;
    loc.checksum_off = loc.payload_off + loc.payload_size;
    out.push_back(loc);
    pos = loc.checksum_off + 8;
  }
  return out;
}

TEST(SnapshotCorruption, TruncationAlwaysThrowsTyped) {
  const std::vector<std::uint8_t> bytes =
      io::encode_snapshot(tiny_snapshot());
  // Every strict prefix must fail loudly — header cuts, mid-section cuts,
  // one-byte-short cuts alike.
  for (std::size_t cut :
       {std::size_t{0}, std::size_t{5}, std::size_t{8}, std::size_t{12},
        std::size_t{16}, bytes.size() / 3, bytes.size() / 2,
        bytes.size() - 9, bytes.size() - 1}) {
    SCOPED_TRACE(cut);
    std::vector<std::uint8_t> t(bytes.begin(),
                                bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)io::decode_snapshot(t), io::SnapshotError);
  }
}

TEST(SnapshotCorruption, BadMagicThrows) {
  std::vector<std::uint8_t> bytes = io::encode_snapshot(tiny_snapshot());
  bytes[0] ^= 0xff;
  EXPECT_THROW((void)io::decode_snapshot(bytes), io::SnapshotError);
}

TEST(SnapshotCorruption, WrongVersionThrows) {
  std::vector<std::uint8_t> bytes = io::encode_snapshot(tiny_snapshot());
  write_u32_le(bytes, 8, 99);  // version field
  try {
    (void)io::decode_snapshot(bytes);
    FAIL() << "expected SnapshotError";
  } catch (const io::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SnapshotCorruption, FlippedPayloadByteFailsChecksum) {
  std::vector<std::uint8_t> bytes = io::encode_snapshot(tiny_snapshot());
  const std::vector<SectionLoc> sections = locate_sections(bytes);
  ASSERT_FALSE(sections.empty());
  for (const SectionLoc& s : sections) {
    SCOPED_TRACE(s.tag);
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[s.payload_off + s.payload_size / 2] ^= 0x40;
    try {
      (void)io::decode_snapshot(corrupt);
      FAIL() << "expected SnapshotError";
    } catch (const io::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
    }
  }
}

TEST(SnapshotCorruption, FlippedChecksumByteFailsChecksum) {
  std::vector<std::uint8_t> bytes = io::encode_snapshot(tiny_snapshot());
  const std::vector<SectionLoc> sections = locate_sections(bytes);
  ASSERT_FALSE(sections.empty());
  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[sections[0].checksum_off] ^= 0x01;
  EXPECT_THROW((void)io::decode_snapshot(corrupt), io::SnapshotError);
}

TEST(SnapshotCorruption, WrongFamilyCertificateTagThrowsTyped) {
  std::vector<std::uint8_t> bytes = io::encode_snapshot(tiny_snapshot());
  bool patched = false;
  for (const SectionLoc& s : locate_sections(bytes)) {
    if (s.tag != 3) continue;  // certificate section
    // Out-of-range family tag, with the checksum recomputed so the typed
    // tag validation (not the checksum) is what rejects it.
    write_u32_le(bytes, s.payload_off, 7);
    write_u64_le(bytes, s.checksum_off,
                 fnv_of(bytes, s.payload_off, s.payload_size));
    patched = true;
  }
  ASSERT_TRUE(patched);
  try {
    (void)io::decode_snapshot(bytes);
    FAIL() << "expected SnapshotError";
  } catch (const io::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("certificate"), std::string::npos);
  }
}

TEST(SnapshotCorruption, MissingFileThrowsTyped) {
  EXPECT_THROW((void)io::read_snapshot("no/such/dir/snapshot.mns"),
               io::SnapshotError);
  EXPECT_THROW(io::write_snapshot(tiny_snapshot(), "no/such/dir/out.mns"),
               io::SnapshotError);
}

// The round engine sends along a tree's parent edges unchecked, so restore
// must refuse a tree whose parent edge does not join a vertex to its parent
// (the sentinel kInvalidEdge, or any other in-range edge), naming the
// vertex, through both front doors. A parent array that is no tree is a
// SnapshotError too.
TEST(SnapshotCorruption, TreeParentEdgeMustJoinVertexToParent) {
  Session s(gen::grid(4, 4).graph());
  const std::string path = "snapshot_bad_tree.mns";
  s.save(path);
  const io::Snapshot good = io::read_snapshot(path);
  ASSERT_TRUE(good.tree.has_value());
  const VertexId v = good.tree->root == 5 ? 6 : 5;
  const EdgeId own = good.tree->parent_edge[static_cast<std::size_t>(v)];
  const EdgeId other = (own + 1) % good.graph.num_edges();
  for (EdgeId bad : {kInvalidEdge, other}) {
    SCOPED_TRACE(bad);
    io::Snapshot snap = good;
    snap.tree->parent_edge[static_cast<std::size_t>(v)] = bad;
    io::write_snapshot(snap, path);
    try {
      (void)Session::restore(path);
      ADD_FAILURE() << "Session::restore installed the tree";
    } catch (const io::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("vertex " + std::to_string(v)),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW((void)serve::QueryServer::from_snapshot(path),
                 io::SnapshotError);
  }
  io::Snapshot cyclic = good;
  cyclic.tree->parent[static_cast<std::size_t>(v)] = v;
  io::write_snapshot(cyclic, path);
  EXPECT_THROW((void)Session::restore(path), io::SnapshotError);
  std::remove(path.c_str());
}

// -------------------------------------------------------- restore parity --

struct FamilyCase {
  std::string name;
  Graph graph;
  StructuralCertificate cert;
};

std::vector<FamilyCase> families() {
  std::vector<FamilyCase> out;
  Rng rng(23);
  out.push_back({"planar", gen::grid(9, 9).graph(), greedy_certificate()});
  {
    gen::KTreeResult kt = gen::random_ktree(90, 3, rng);
    out.push_back(
        {"treewidth", kt.graph, treewidth_certificate(kt.decomposition)});
  }
  {
    gen::ApexResult ar = gen::add_apices(gen::grid(7, 7).graph(), 1, 0.2, rng);
    out.push_back({"apex", ar.graph, apex_certificate(ar.apices)});
  }
  {
    Graph bag = gen::triangulated_grid(4, 4).graph();
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < 5; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
    gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
    out.push_back(
        {"cliquesum", cs.graph, cliquesum_certificate(cs.decomposition)});
  }
  return out;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// The acceptance matrix: {planar, treewidth, apex, cliquesum} ×
// {mst, sssp.approx} × threads {1, 4}. A solve from the restored snapshot
// must be bit-identical to the in-process warm solve AND pay zero
// construction charges.
TEST(SnapshotRestoreParity, WarmSolveBitIdenticalAcrossProcessBoundary) {
  for (FamilyCase& fam : families()) {
    Rng wrng(31);
    std::vector<Weight> w = gen::unique_random_weights(fam.graph, wrng);
    congest::ApproxSssp sq{w, 0};
    sq.epsilon = 0.25;
    for (int threads : {1, 4}) {
      SCOPED_TRACE(fam.name + " threads=" + std::to_string(threads));
      congest::SolveOptions opt;
      opt.threads = threads;
      const std::string path = "snapshot_parity_" + fam.name + "_" +
                               std::to_string(threads) + ".mns";

      Session warm(fam.graph, fam.cert);
      // Prime: the first runs pay construction and fill the cache.
      (void)warm.solve(congest::Mst{w}, opt);
      (void)warm.solve(sq, opt);
      warm.save(path, w);

      // In-process warm solves — the oracle the restored ones must match.
      RunReport warm_mst = warm.solve(congest::Mst{w}, opt);
      RunReport warm_sssp = warm.solve(sq, opt);
      EXPECT_EQ(warm_mst.charged_construction_rounds, 0);
      EXPECT_EQ(warm_sssp.charged_construction_rounds, 0);

      Session restored = Session::restore(path);
      RunReport rest_mst = restored.solve(congest::Mst{w}, opt);
      RunReport rest_sssp = restored.solve(sq, opt);

      EXPECT_TRUE(io::run_reports_identical(warm_mst, rest_mst));
      EXPECT_TRUE(io::run_reports_identical(warm_sssp, rest_sssp));
      // The load-bearing guarantee: the restored cache serves EVERY
      // partition — zero misses, zero construction charges.
      EXPECT_EQ(rest_mst.charged_construction_rounds, 0);
      EXPECT_EQ(rest_mst.cache_misses, 0);
      EXPECT_GT(rest_mst.cache_hits, 0);
      EXPECT_EQ(rest_sssp.charged_construction_rounds, 0);
      EXPECT_EQ(rest_sssp.cache_misses, 0);
      // Canonical JSON agrees field-for-field except wall_ms.
      EXPECT_EQ(io::parse_json(io::run_report_to_json(warm_mst))
                    .find("payload")
                    ->render(),
                io::parse_json(io::run_report_to_json(rest_mst))
                    .find("payload")
                    ->render());
      std::remove(path.c_str());
    }
  }
}

// save -> restore -> save is byte-identical: the snapshot is a fixed point
// (tree and LRU order survive the round trip exactly).
TEST(SnapshotRestoreParity, SaveRestoreSaveIsByteIdentical) {
  FamilyCase fam = std::move(families()[0]);
  Rng wrng(47);
  std::vector<Weight> w = gen::unique_random_weights(fam.graph, wrng);
  Session s(fam.graph, fam.cert);
  (void)s.solve(congest::Mst{w});
  congest::ApproxSssp q{w, 0};
  (void)s.solve(q);
  s.save("snapshot_fixpoint_a.mns", w);
  Session restored = Session::restore("snapshot_fixpoint_a.mns");
  restored.save("snapshot_fixpoint_b.mns", w);
  EXPECT_EQ(file_bytes("snapshot_fixpoint_a.mns"),
            file_bytes("snapshot_fixpoint_b.mns"));
  std::remove("snapshot_fixpoint_a.mns");
  std::remove("snapshot_fixpoint_b.mns");
}

// A snapshot saved BEFORE any solve restores to a cold-but-working session
// (tree present, cache empty) — gen-style snapshots.
TEST(SnapshotRestoreParity, ColdSnapshotRestoresAndSolves) {
  FamilyCase fam = std::move(families()[2]);  // apex
  Rng wrng(53);
  std::vector<Weight> w = gen::unique_random_weights(fam.graph, wrng);
  Session cold(fam.graph, fam.cert);
  cold.save("snapshot_cold.mns", w);
  io::Snapshot snap = io::read_snapshot("snapshot_cold.mns");
  EXPECT_TRUE(snap.tree.has_value());  // save() force-builds the tree
  EXPECT_TRUE(snap.shortcuts.empty());
  EXPECT_EQ(snap.weights, w);
  Session restored = Session::restore(std::move(snap));
  RunReport direct = cold.solve(congest::Mst{w});
  RunReport from_snap = restored.solve(congest::Mst{w});
  EXPECT_TRUE(io::run_reports_identical(direct, from_snap));
  std::remove("snapshot_cold.mns");
}

// ---------------------------------------------------------- json contract --

TEST(CanonicalReportJson, ParsesAndCarriesDeterministicFields) {
  Graph g = gen::grid(5, 5).graph();
  Rng rng(11);
  std::vector<Weight> w = gen::unique_random_weights(g, rng);
  Session s(g);
  RunReport rep = s.solve(congest::Mst{w});
  const std::string json = io::run_report_to_json(rep);
  io::JsonValue v = io::parse_json(json);
  ASSERT_EQ(v.kind, io::JsonValue::Kind::kObject);
  EXPECT_EQ(v.find("workload")->text, "mst");
  EXPECT_EQ(static_cast<long long>(v.find("rounds")->number), rep.rounds);
  EXPECT_EQ(static_cast<long long>(v.find("messages")->number), rep.messages);
  const io::JsonValue* payload = v.find("payload");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->find("kind")->text, "mst");
  // Identical WARM runs are identical in every deterministic field (the
  // first run differs from them exactly in its construction charge and
  // cache-miss accounting).
  RunReport warm1 = s.solve(congest::Mst{w});
  RunReport warm2 = s.solve(congest::Mst{w});
  EXPECT_FALSE(io::run_reports_identical(rep, warm1));  // cold vs warm
  EXPECT_TRUE(io::run_reports_identical(warm1, warm2));
  EXPECT_EQ(warm1.rounds, rep.rounds);  // measured schedule never changes
}

TEST(RunReportsIdentical, RejectsAnyPayloadDifference) {
  using Payload = decltype(RunReport::payload);
  using congest::AggValue;
  // One filled payload of every kind next to copies with one field changed.
  const congest::MstPayload mst{{1, 4}, {0, 0, 1}};
  const congest::MinCutPayload cut{5, 3};
  const congest::SsspPayload sssp{{0, 2, 7}, 4};
  const congest::BfsPayload bfs{{0, 1, 1}, {-1, 0, 0}, {-1, 0, 2}};
  const congest::AggregatePayload agg{{AggValue{3, 1}, AggValue{8, 2}}};
  const congest::MisPayload mis{{1, 0, 1}, 2};
  const congest::DomsetPayload dom{{0, 1, 0}, 1};
  const std::vector<std::pair<Payload, Payload>> perturbed = {
      {mst, congest::MstPayload{{1, 5}, mst.fragment_of}},
      {mst, congest::MstPayload{mst.edges, {0, 1, 1}}},
      {cut, congest::MinCutPayload{6, cut.trees}},
      {cut, congest::MinCutPayload{cut.value, 4}},
      {sssp, congest::SsspPayload{{0, 2, 8}, sssp.jumps}},
      {sssp, congest::SsspPayload{sssp.dist, 5}},
      {bfs, congest::BfsPayload{{0, 1, 2}, bfs.parent, bfs.parent_edge}},
      {bfs, congest::BfsPayload{bfs.dist, {-1, 0, 1}, bfs.parent_edge}},
      {bfs, congest::BfsPayload{bfs.dist, bfs.parent, {-1, 0, 1}}},
      {agg, congest::AggregatePayload{{AggValue{3, 1}, AggValue{9, 2}}}},
      {agg, congest::AggregatePayload{{AggValue{3, 0}, AggValue{8, 2}}}},
      {mis, congest::MisPayload{{1, 1, 1}, mis.size}},
      {mis, congest::MisPayload{mis.in_mis, 3}},
      {dom, congest::DomsetPayload{{1, 1, 0}, dom.size}},
      {dom, congest::DomsetPayload{dom.in_set, 2}},
      // Same fields, different kind.
      {congest::MisPayload{{1, 0}, 1}, congest::DomsetPayload{{1, 0}, 1}},
      // No payload against an empty one.
      {Payload{}, congest::MstPayload{}},
  };
  for (const auto& [base, changed] : perturbed) {
    RunReport a;
    a.workload = "w";
    a.payload = base;
    RunReport b = a;
    EXPECT_TRUE(io::run_reports_identical(a, b)) << "kind " << base.index();
    b.payload = changed;
    EXPECT_FALSE(io::run_reports_identical(a, b)) << "kind " << base.index();
    EXPECT_FALSE(io::run_reports_identical(b, a)) << "kind " << base.index();
  }
}

TEST(CanonicalReportJson, MalformedJsonThrowsTyped) {
  EXPECT_THROW((void)io::parse_json("{\"a\": }"), io::JsonError);
  EXPECT_THROW((void)io::parse_json("{\"a\": 1} trailing"), io::JsonError);
  EXPECT_THROW((void)io::parse_json("\"unterminated"), io::JsonError);
  EXPECT_THROW((void)io::parse_json("{\"a\": 1e}"), io::JsonError);
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_THROW((void)io::parse_json(deep), io::JsonError);
  // Happy path: all scalar kinds.
  io::JsonValue v =
      io::parse_json("{\"b\": true, \"n\": null, \"x\": -1.5e2, \"s\": \"t\"}");
  EXPECT_TRUE(v.find("b")->boolean);
  EXPECT_EQ(v.find("n")->kind, io::JsonValue::Kind::kNull);
  EXPECT_EQ(v.find("x")->number, -150.0);
  EXPECT_EQ(v.find("x")->text, "-1.5e2");  // raw lexeme preserved
  EXPECT_EQ(v.find("s")->text, "t");
}

}  // namespace
}  // namespace mns
