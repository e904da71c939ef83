//===- tests/verify_golden_test.cpp - Golden closed-loop e2e ---*- C++ -*-===//
//
// Runs the real structslim-verify binary over all seven paper
// workloads at a pinned scale and asserts:
//  - the JSON deltas match the checked-in golden byte for byte
//    (tests/data/golden_verify.json; regenerate with
//    tests/regen_advice_goldens.sh after intentional changes),
//  - no workload regresses modeled latency and every one keeps its
//    results (the never-regress contract, parsed from the document),
//  - the document is byte-identical for --jobs=1 and --jobs=4,
//  - the CLI rejects malformed values/options with exit 2 and usage.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

namespace {

std::string dataPath(const std::string &Name) {
  return std::string(STRUCTSLIM_TEST_DATA) + "/" + Name;
}

struct CommandResult {
  int ExitCode = -1;
  std::string Output; ///< stdout and stderr, interleaved.
};

CommandResult runVerify(const std::vector<std::string> &Args) {
  std::string Cmd = std::string(STRUCTSLIM_VERIFY_BIN);
  for (const std::string &A : Args)
    Cmd += " " + A;
  Cmd += " 2>&1";
  CommandResult Result;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return Result;
  char Buffer[4096];
  size_t N;
  while ((N = fread(Buffer, 1, sizeof(Buffer), Pipe)) != 0)
    Result.Output.append(Buffer, N);
  int Status = pclose(Pipe);
  Result.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Result;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

bool regenRequested() {
  const char *Env = std::getenv("STRUCTSLIM_REGEN_GOLDENS");
  return Env && *Env && std::string(Env) != "0";
}

/// The pinned invocation behind the golden document.
const std::vector<std::string> GoldenArgs = {"--scale=0.1", "--jobs=1",
                                             "--json"};

} // namespace

TEST(VerifyGolden, SevenWorkloadJsonDeltasMatchGolden) {
  CommandResult R = runVerify(GoldenArgs);
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  std::string Path = dataPath("golden_verify.json");
  if (regenRequested()) {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << R.Output;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::string Golden = readFileBytes(Path);
  ASSERT_FALSE(Golden.empty())
      << "missing golden " << Path
      << " (run tests/regen_advice_goldens.sh to create it)";
  EXPECT_EQ(R.Output, Golden)
      << "closed-loop deltas drifted from " << Path
      << "; regenerate via tests/regen_advice_goldens.sh if intentional";
}

TEST(VerifyGolden, NoWorkloadRegressesAndAllResultsMatch) {
  CommandResult R = runVerify(GoldenArgs);
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  // Summary of the never-regress contract, straight from the document.
  EXPECT_NE(R.Output.find("\"workloads\": 7"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"regressed\": 0"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"results_mismatch\": 0"), std::string::npos);
  EXPECT_NE(R.Output.find("\"all_ok\": true"), std::string::npos);
  // Both application paths exercised: the serial workloads split at
  // the IR level, the parallel ones through the source rebuild.
  EXPECT_NE(R.Output.find("\"ir_split\": 4"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"fieldmap_rebuild\": 3"), std::string::npos);
  // No per-workload regression flags either.
  EXPECT_EQ(R.Output.find("\"regressed\": true"), std::string::npos);
  EXPECT_EQ(R.Output.find("\"results_match\": false"), std::string::npos);
}

TEST(VerifyGolden, JobCountNeverChangesTheDocument) {
  CommandResult One = runVerify({"--scale=0.1", "--jobs=1", "--json"});
  CommandResult Four = runVerify({"--scale=0.1", "--jobs=4", "--json"});
  ASSERT_EQ(One.ExitCode, 0) << One.Output;
  ASSERT_EQ(Four.ExitCode, 0) << Four.Output;
  EXPECT_EQ(One.Output, Four.Output);
}

TEST(VerifyGolden, SmokeModeRunsTwoWorkloadsGreen) {
  CommandResult R = runVerify({"--smoke"});
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("179.ART"), std::string::npos);
  EXPECT_NE(R.Output.find("CLOMP 1.2"), std::string::npos);
  EXPECT_NE(R.Output.find("ir-split"), std::string::npos);
  EXPECT_NE(R.Output.find("fieldmap-rebuild"), std::string::npos);
  EXPECT_NE(R.Output.find("0 regressed"), std::string::npos) << R.Output;
}

TEST(VerifyGolden, ListPrintsTheSevenPaperNames) {
  CommandResult R = runVerify({"--list"});
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  for (const char *Name : {"179.ART", "462.libquantum", "TSP", "Mser",
                           "CLOMP 1.2", "Health", "NN"})
    EXPECT_NE(R.Output.find(Name), std::string::npos) << Name;
}

TEST(VerifyGolden, SelectsSingleWorkloadByName) {
  CommandResult R = runVerify({"--scale=0.1", "TSP"});
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("TSP"), std::string::npos);
  EXPECT_NE(R.Output.find("1 workload(s)"), std::string::npos) << R.Output;
}

// --- Defensive CLI parsing ----------------------------------------------

TEST(VerifyCli, MalformedValuesExitTwoWithUsage) {
  struct Case {
    const char *Arg;
    const char *Flag;
  } Cases[] = {
      {"--scale=abc", "--scale"}, {"--scale=", "--scale"},
      {"--scale=0", "--scale"},   {"--scale=1x", "--scale"},
      {"--scale=nan", "--scale"}, {"--scale=inf", "--scale"},
      {"--period=0", "--period"}, {"--period=ten", "--period"},
      {"--jobs=-1", "--jobs"},    {"--jobs=1x", "--jobs"},
  };
  for (const Case &C : Cases) {
    CommandResult R = runVerify({C.Arg});
    EXPECT_EQ(R.ExitCode, 2) << C.Arg << "\n" << R.Output;
    EXPECT_NE(R.Output.find("error: invalid value"), std::string::npos)
        << C.Arg << "\n" << R.Output;
    EXPECT_NE(R.Output.find(C.Flag), std::string::npos) << R.Output;
    EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
  }
}

TEST(VerifyCli, UnknownOptionExitsTwoWithUsage) {
  CommandResult R = runVerify({"--frobnicate"});
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("error: unknown option '--frobnicate'"),
            std::string::npos);
  EXPECT_NE(R.Output.find("usage:"), std::string::npos);
}

TEST(VerifyCli, UnknownWorkloadExitsTwoNamingIt) {
  CommandResult R = runVerify({"NoSuchBench"});
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown workload 'NoSuchBench'"),
            std::string::npos);
}

TEST(VerifyCli, SmokeRejectsExplicitWorkloadNames) {
  CommandResult R = runVerify({"--smoke", "TSP"});
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("--smoke takes no workload names"),
            std::string::npos);
}
