// mnsctl usage-contract tests: every malformed invocation — unknown
// subcommand, missing argument, bad flag value, missing flag value — must
// print the usage block to stderr and exit 2, consistently across every
// subcommand (including dist). Runs the real binary via popen; CMake points
// MNSCTL_BIN at $<TARGET_FILE:mnsctl> and skips this test entirely when
// examples are not built (the sanitizer jobs).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr combined
};

CliResult run_mnsctl(const std::string& args) {
  const char* bin = std::getenv("MNSCTL_BIN");
  if (bin == nullptr || *bin == '\0') return {};
  const std::string cmd = std::string(bin) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  CliResult out;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0)
    out.output.append(buf.data(), n);
  const int status = ::pclose(pipe);
  out.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status)
                                                     : -1;
  return out;
}

TEST(MnsctlCli, MalformedInvocationsPrintUsageAndExit2) {
  if (std::getenv("MNSCTL_BIN") == nullptr)
    GTEST_SKIP() << "MNSCTL_BIN not set (examples not built)";
  const std::vector<std::string> malformed = {
      "",                            // missing subcommand
      "frobnicate",                  // unknown subcommand
      "gen",                         // gen without --family
      "gen --family planar",         // gen without -o
      "gen --family",                // flag missing its value
      "gen --family planar --size nope -o x.mns",  // non-numeric value
      "gen --family planar --size 0 -o x.mns",     // out-of-range value
      "build",                       // build without <snapshot>
      "solve",                       // solve without <snapshot>
      "solve x.mns",                 // solve without --workload
      "serve",                       // serve without <snapshot>
      "dist",                        // dist without <snapshot>
      "dist x.mns",                  // dist without --workload
      "dist x.mns --workload mst --ranks 0",    // out-of-range ranks
      "dist x.mns --workload mst --drop-rate 2.0",  // out-of-range rate
      "inspect",                     // inspect without <snapshot>
      "diff",                        // diff without both documents
      "diff a.json",                 // diff with one document
      "baseline",                    // baseline without <in.json>
      "baseline a.json",             // baseline without -o
      "solve --bogus-flag x.mns",    // unknown flag
      "solve x.mns --workload nosuch",  // unregistered workload name
      "solve x.mns --workload mis --partition bogus",  // bad partition source
  };
  for (const std::string& args : malformed) {
    SCOPED_TRACE("mnsctl " + args);
    const CliResult r = run_mnsctl(args);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
  // The usage block is generated from the registry: a typo'd workload gets
  // the actual catalogue, not a stale hardcoded list.
  const CliResult bad = run_mnsctl("solve x.mns --workload nosuch");
  EXPECT_NE(bad.output.find("unknown workload 'nosuch'"), std::string::npos)
      << bad.output;
  EXPECT_NE(bad.output.find("registered workloads"), std::string::npos)
      << bad.output;
  EXPECT_NE(bad.output.find("domset"), std::string::npos) << bad.output;
  EXPECT_NE(bad.output.find("mis"), std::string::npos) << bad.output;
}

TEST(MnsctlCli, WellFormedGenSolveDiffRoundTripExitsZero) {
  if (std::getenv("MNSCTL_BIN") == nullptr)
    GTEST_SKIP() << "MNSCTL_BIN not set (examples not built)";
  // A tiny end-to-end pass through the happy path keeps the exit-code
  // contract two-sided: 2 is for usage errors, 0 is for success.
  const std::string dir = ::testing::TempDir() + "mnsctl_cli";
  const std::string snap = dir + "/net.mns";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  CliResult gen = run_mnsctl("gen --family planar --size 4 --seed 3 -o " +
                             snap);
  EXPECT_EQ(gen.exit_code, 0) << gen.output;
  CliResult solve =
      run_mnsctl("solve " + snap + " --workload mst -o " + dir + "/a.json");
  EXPECT_EQ(solve.exit_code, 0) << solve.output;
  CliResult diff =
      run_mnsctl("diff --baseline " + dir + "/a.json " + dir + "/a.json");
  EXPECT_EQ(diff.exit_code, 0) << diff.output;
  // The new workloads ride the same snapshot: mis happy path, and an
  // LDD-partition mst whose report lands in the canonical JSON shape.
  CliResult mis = run_mnsctl("solve " + snap + " --workload mis");
  EXPECT_EQ(mis.exit_code, 0) << mis.output;
  EXPECT_NE(mis.output.find("\"kind\": \"mis\""), std::string::npos)
      << mis.output;
  CliResult ldd = run_mnsctl("solve " + snap +
                             " --workload mst --partition ldd --repeat 2");
  EXPECT_EQ(ldd.exit_code, 0) << ldd.output;
}

TEST(MnsctlCli, BaselineDiffMasksTransportDeliveryCounters) {
  if (std::getenv("MNSCTL_BIN") == nullptr)
    GTEST_SKIP() << "MNSCTL_BIN not set (examples not built)";
  // Delivery counters depend on timing and on what the network threw at a
  // rank; the canonical traffic counters stay gated.
  const std::string dir = ::testing::TempDir() + "mnsctl_cli_transport";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  const auto write = [&](const std::string& name, const std::string& json) {
    FILE* f = std::fopen((dir + "/" + name).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(json.c_str(), f);
    std::fclose(f);
  };
  write("ref.json",
        R"({"rounds_exchanged": 40, "wire_records": 90, "acks_sent": 0,)"
        R"( "retransmits": 0, "datagrams_sent": 80,)"
        R"( "datagrams_rejected": 0})");
  write("noisy.json",
        R"({"rounds_exchanged": 40, "wire_records": 90, "acks_sent": 3,)"
        R"( "retransmits": 5, "datagrams_sent": 97,)"
        R"( "datagrams_rejected": 1000})");
  write("drift.json",
        R"({"rounds_exchanged": 41, "wire_records": 90, "acks_sent": 0,)"
        R"( "retransmits": 0, "datagrams_sent": 80,)"
        R"( "datagrams_rejected": 0})");
  const CliResult noisy = run_mnsctl("diff --baseline " + dir + "/ref.json " +
                                     dir + "/noisy.json");
  EXPECT_EQ(noisy.exit_code, 0) << noisy.output;
  const CliResult drift = run_mnsctl("diff --baseline " + dir + "/ref.json " +
                                     dir + "/drift.json");
  EXPECT_EQ(drift.exit_code, 1) << drift.output;
}

TEST(MnsctlCli, BaselineDiffMasksWallClockRatios) {
  if (std::getenv("MNSCTL_BIN") == nullptr)
    GTEST_SKIP() << "MNSCTL_BIN not set (examples not built)";
  // Throughput and parallel speedup are ratios of wall clocks: they differ
  // between two runs of the same binary, the rounds beside them do not.
  const std::string dir = ::testing::TempDir() + "mnsctl_cli_ratios";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  const auto write = [&](const std::string& name, const std::string& json) {
    FILE* f = std::fopen((dir + "/" + name).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(json.c_str(), f);
    std::fclose(f);
  };
  write("ref.json",
        R"({"rows": [{"threads": 4, "rounds": 269, "speedup": 1.91,)"
        R"( "qps": 812.5, "parity": "ok"}]})");
  write("noisy.json",
        R"({"rows": [{"threads": 4, "rounds": 269, "speedup": 0.73,)"
        R"( "qps": 301.0, "parity": "ok"}]})");
  write("drift.json",
        R"({"rows": [{"threads": 4, "rounds": 270, "speedup": 1.91,)"
        R"( "qps": 812.5, "parity": "ok"}]})");
  const CliResult noisy = run_mnsctl("diff --baseline " + dir + "/ref.json " +
                                     dir + "/noisy.json");
  EXPECT_EQ(noisy.exit_code, 0) << noisy.output;
  const CliResult drift = run_mnsctl("diff --baseline " + dir + "/ref.json " +
                                     dir + "/drift.json");
  EXPECT_EQ(drift.exit_code, 1) << drift.output;
  EXPECT_NE(drift.output.find("rounds"), std::string::npos) << drift.output;
}

}  // namespace
