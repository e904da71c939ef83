//===- tests/advice_golden_test.cpp - Golden advice regression -*- C++ -*-===//
//
// Pins the end of the analysis pipeline for every paper workload: the
// rendered advice text (the Fig. 7-13 presentation) and the
// machine-readable SplitPlan JSON, produced under a fixed DriverConfig
// (scale 0.1, default sampling seed/period, inline serial oracle), are
// compared byte-for-byte against goldens in tests/data/. Any change to
// sampling, merging, analysis, clustering or rendering that shifts the
// advice shows up as a diff here instead of drifting silently.
//
// Regenerate after an intentional change with
//   tests/regen_advice_goldens.sh <build-dir>
// (which reruns this binary with STRUCTSLIM_REGEN_GOLDENS=1).
//
//===----------------------------------------------------------------------===//

#include "core/Advice.h"
#include "workloads/Driver.h"
#include "workloads/Registry.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace structslim;

namespace {

/// "CLOMP 1.2" -> "clomp_1_2" (portable file names).
std::string slugOf(const std::string &Name) {
  std::string Slug;
  for (char C : Name)
    Slug += std::isalnum(static_cast<unsigned char>(C))
                ? static_cast<char>(
                      std::tolower(static_cast<unsigned char>(C)))
                : '_';
  return Slug;
}

std::string goldenPath(const std::string &WorkloadName) {
  return std::string(STRUCTSLIM_TEST_DATA) + "/advice_" +
         slugOf(WorkloadName) + ".golden";
}

/// The pinned configuration. Every knob that feeds the advice is
/// explicit here; changing any of them is a golden regeneration.
workloads::DriverConfig pinnedConfig() {
  workloads::DriverConfig Config;
  Config.Scale = 0.1;
  Config.WorkerThreads = 1;
  return Config;
}

/// Profile + analyze + advise, rendered as one deterministic document.
std::string adviceDocument(const workloads::Workload &W) {
  workloads::DriverConfig Config = pinnedConfig();
  ir::StructLayout Hot = W.hotLayout();
  transform::FieldMap Identity(Hot);
  workloads::WorkloadRun Run =
      workloads::runWorkload(W, Identity, Config, /*Attach=*/true);
  core::StructSlimAnalyzer Analyzer(*Run.CodeMap, Config.Analysis);
  Analyzer.registerLayout(W.hotObjectName(), Hot);
  core::AnalysisResult Analysis = Analyzer.analyze(Run.Merged);

  const core::ObjectAnalysis *HotObj =
      Analysis.findObject(W.hotObjectName());
  std::ostringstream OS;
  OS << "# advice golden: " << W.name() << " (" << W.suite() << ")\n";
  if (!HotObj) {
    OS << "hot object '" << W.hotObjectName()
       << "' not significant in the profile\n";
    return OS.str();
  }
  core::SplitPlan Plan = core::makeSplitPlan(*HotObj, &Hot);
  OS << core::renderAdviceText(Plan, *HotObj, &Hot);
  OS << core::renderSplitPlanJson(Plan) << "\n";
  return OS.str();
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

class AdviceGolden : public ::testing::TestWithParam<size_t> {};

} // namespace

TEST_P(AdviceGolden, MatchesCheckedInAdvice) {
  auto Workloads = workloads::makePaperWorkloads();
  ASSERT_LT(GetParam(), Workloads.size());
  const workloads::Workload &W = *Workloads[GetParam()];
  std::string Document = adviceDocument(W);
  std::string Path = goldenPath(W.name());

  if (regenRequested()) {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Document;
    GTEST_SKIP() << "regenerated " << Path;
  }

  std::string Golden = readFileBytes(Path);
  ASSERT_FALSE(Golden.empty())
      << "missing golden " << Path
      << " (run tests/regen_advice_goldens.sh to create it)";
  EXPECT_EQ(Document, Golden)
      << "advice drifted from " << Path
      << "; regenerate via tests/regen_advice_goldens.sh if intentional";
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, AdviceGolden,
                         ::testing::Range<size_t>(0, 7),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           auto Ws = workloads::makePaperWorkloads();
                           return slugOf(Ws[Info.param]->name());
                         });

// The advice every workload pins must actually recommend a split —
// the goldens would otherwise freeze a regression of the clustering.
TEST(AdviceGolden, EverySevenWorkloadAdviceRecommendsASplit) {
  for (const auto &W : workloads::makePaperWorkloads()) {
    std::string Document = adviceDocument(*W);
    EXPECT_NE(Document.find("StructSlim advice: split"), std::string::npos)
        << W->name() << ":\n"
        << Document;
    EXPECT_NE(Document.find("\"split\": true"), std::string::npos)
        << W->name();
  }
}
