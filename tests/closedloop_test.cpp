//===- tests/closedloop_test.cpp - Closed-loop verifier --------*- C++ -*-===//
//
// The advice -> automatic split -> re-simulate loop (core/ClosedLoop):
//  - a serial workload takes the IR-split path, keeps its results, and
//    does not regress modeled latency,
//  - a parallel workload is rejected by the splitter (published base
//    pointer) and falls back to the FieldMap rebuild, with the
//    splitter's diagnostic preserved,
//  - verdicts and their JSON rendering do not depend on the ignored
//    DriverConfig::WorkerThreads knob,
//  - the BenefitModel's prediction and the measured speedup agree in
//    direction (both > 1 when the split helps),
//  - the verdict's Before counters, taken from the profiled run, equal
//    a real detached run of the original layout,
//  - one analyzer serves concurrent analyze() calls, the first of which
//    race to build the Eq. 4 bound table (run under TSan).
//
//===----------------------------------------------------------------------===//

#include "core/ClosedLoop.h"
#include "core/Report.h"
#include "transform/FieldMap.h"
#include "workloads/Driver.h"
#include "workloads/Registry.h"

#include <gtest/gtest.h>

#include <thread>

using namespace structslim;
using namespace structslim::core;

namespace {

ClosedLoopConfig testConfig(unsigned Jobs = 0) {
  ClosedLoopConfig Config;
  Config.Driver.Scale = 0.1;
  Config.Driver.WorkerThreads = Jobs;
  return Config;
}

} // namespace

TEST(ClosedLoop, SerialWorkloadTakesIrSplitPath) {
  WorkloadVerdict V = verifyWorkload(*workloads::makeArt(), testConfig());
  EXPECT_EQ(V.Name, "179.ART");
  EXPECT_EQ(V.Mode, ApplyMode::IrSplit);
  EXPECT_TRUE(V.FallbackReason.empty()) << V.FallbackReason;
  EXPECT_TRUE(V.Plan.isSplit());
  EXPECT_TRUE(V.ResultsMatch);
  EXPECT_FALSE(V.regressed());
  EXPECT_TRUE(V.improved());
  EXPECT_TRUE(V.ok());
  // Sampled-vs-exact agreement: the analyzer recovered f1_neuron's
  // 64-byte size from PMU samples alone.
  EXPECT_TRUE(V.sizeExact());
  EXPECT_EQ(V.ActualStructSize, 64u);
  EXPECT_GT(V.Samples, 0u);
  EXPECT_GT(V.HotShare, 0.5);
  // The transformed program did real work under the same config.
  EXPECT_GT(V.After.Instructions, 0u);
  EXPECT_GT(V.After.MemoryAccesses, 0u);
  EXPECT_LT(V.After.ElapsedCycles, V.Before.ElapsedCycles);
  // Splitting removes L1 misses on the hot sweep.
  EXPECT_GT(V.MissRateReduction[0], 0.0);
}

TEST(ClosedLoop, ParallelWorkloadFallsBackToFieldMapRebuild) {
  WorkloadVerdict V = verifyWorkload(*workloads::makeClomp(), testConfig());
  EXPECT_EQ(V.Mode, ApplyMode::FieldMapRebuild);
  // The splitter must refuse the published base pointer — rewriting
  // only the allocating function would silently break the workers.
  EXPECT_NE(V.FallbackReason.find("escapes"), std::string::npos)
      << V.FallbackReason;
  EXPECT_TRUE(V.Plan.isSplit());
  EXPECT_TRUE(V.ResultsMatch);
  EXPECT_FALSE(V.regressed());
  EXPECT_TRUE(V.ok());
}

TEST(ClosedLoop, PredictionAndMeasurementAgreeInDirection) {
  WorkloadVerdict V = verifyWorkload(*workloads::makeArt(), testConfig());
  EXPECT_GT(V.PredictedSpeedup, 1.0);
  EXPECT_GT(V.MeasuredSpeedup, 1.0);
}

// DriverConfig::WorkerThreads is ignored (the merge is serial), but the
// benchmark harness still sets it; pin that it cannot change a verdict.
TEST(ClosedLoop, VerdictsAreIdenticalForAnyJobCount) {
  std::vector<std::unique_ptr<workloads::Workload>> Ws;
  Ws.push_back(workloads::makeArt());
  Ws.push_back(workloads::makeClomp());
  VerifyReport One = verifyWorkloads(Ws, testConfig(/*Jobs=*/1));
  VerifyReport Four = verifyWorkloads(Ws, testConfig(/*Jobs=*/4));
  EXPECT_EQ(renderVerifyJson(One, testConfig(1)),
            renderVerifyJson(Four, testConfig(4)));
  EXPECT_EQ(renderVerifyText(One), renderVerifyText(Four));
}

TEST(ClosedLoop, BeforeCountersEqualADetachedRun) {
  ClosedLoopConfig Config = testConfig();
  std::vector<std::unique_ptr<workloads::Workload>> Ws;
  Ws.push_back(workloads::makeArt());   // ir-split path.
  Ws.push_back(workloads::makeClomp()); // fieldmap-rebuild path.
  for (const auto &W : Ws) {
    SCOPED_TRACE(W->name());
    WorkloadVerdict V = verifyWorkload(*W, Config);
    transform::FieldMap Identity(W->hotLayout());
    runtime::RunResult Detached =
        workloads::runWorkload(*W, Identity, Config.Driver, /*Attach=*/false)
            .Result;
    EXPECT_EQ(V.Before.ElapsedCycles, Detached.ElapsedCycles);
    EXPECT_EQ(V.Before.Instructions, Detached.Instructions);
    EXPECT_EQ(V.Before.MemoryAccesses, Detached.MemoryAccesses);
    for (unsigned Level = 0; Level != 3; ++Level) {
      EXPECT_EQ(V.Before.Accesses[Level], Detached.Accesses[Level])
          << "level " << Level;
      EXPECT_EQ(V.Before.Misses[Level], Detached.Misses[Level])
          << "level " << Level;
    }
    EXPECT_NE(V.Mode, ApplyMode::None);
    EXPECT_TRUE(V.ResultsMatch);
  }
}

// analyze() keeps no state between calls, so one analyzer may serve
// several threads at once. Nothing in this process has asked for an
// Eq. 4 bound before the threads start, so they also race on the
// bound table's first use.
TEST(ClosedLoop, ConcurrentAnalysesOnOneAnalyzerMatchSerial) {
  ClosedLoopConfig Config = testConfig();
  std::unique_ptr<workloads::Workload> W = workloads::makeArt();
  transform::FieldMap Identity(W->hotLayout());
  workloads::WorkloadRun Run =
      workloads::runWorkload(*W, Identity, Config.Driver, /*Attach=*/true);
  StructSlimAnalyzer Analyzer(*Run.CodeMap, Config.Driver.Analysis);
  auto Render = [&] {
    return renderJsonReport(Analyzer.analyze(Run.Merged), Run.Merged,
                            Config.Driver.Analysis, ReportStats(), {});
  };
  std::vector<std::string> Rendered(4);
  std::vector<std::thread> Threads;
  for (std::string &Out : Rendered)
    Threads.emplace_back([&Out, &Render] { Out = Render(); });
  for (std::thread &T : Threads)
    T.join();
  std::string Serial = Render();
  EXPECT_NE(Serial.find("\"size_confidence\""), std::string::npos);
  for (const std::string &Out : Rendered)
    EXPECT_EQ(Out, Serial);
}

TEST(ClosedLoop, ReportAggregatesAndRendersBothForms) {
  std::vector<std::unique_ptr<workloads::Workload>> Ws;
  Ws.push_back(workloads::makeArt());
  Ws.push_back(workloads::makeClomp());
  ClosedLoopConfig Config = testConfig();
  VerifyReport Report = verifyWorkloads(Ws, Config);
  ASSERT_EQ(Report.Workloads.size(), 2u);
  EXPECT_EQ(Report.countMode(ApplyMode::IrSplit), 1u);
  EXPECT_EQ(Report.countMode(ApplyMode::FieldMapRebuild), 1u);
  EXPECT_EQ(Report.countMode(ApplyMode::None), 0u);
  EXPECT_EQ(Report.countRegressed(), 0u);
  EXPECT_EQ(Report.countMismatched(), 0u);
  EXPECT_TRUE(Report.allOk());

  std::string Text = renderVerifyText(Report);
  EXPECT_NE(Text.find("179.ART"), std::string::npos);
  EXPECT_NE(Text.find("ir-split"), std::string::npos);
  EXPECT_NE(Text.find("fieldmap-rebuild"), std::string::npos);
  EXPECT_NE(Text.find("0 regressed"), std::string::npos);

  std::string Json = renderVerifyJson(Report, Config);
  EXPECT_EQ(Json.rfind('{', 0), 0u);
  for (const char *Key :
       {"\"schema_version\": 1", "\"generator\": \"structslim-verify\"",
        "\"mode\": \"ir-split\"", "\"mode\": \"fieldmap-rebuild\"",
        "\"plan\":", "\"clusters\":", "\"agreement\":", "\"before\":",
        "\"after\":", "\"delta\":", "\"measured_speedup\":",
        "\"predicted_speedup\":", "\"miss_rate_reduction\":",
        "\"all_ok\": true"})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
}

TEST(ClosedLoop, ApplyModeNamesAreStable) {
  EXPECT_STREQ(applyModeName(ApplyMode::None), "none");
  EXPECT_STREQ(applyModeName(ApplyMode::IrSplit), "ir-split");
  EXPECT_STREQ(applyModeName(ApplyMode::FieldMapRebuild),
               "fieldmap-rebuild");
}

TEST(ClosedLoop, MissRateGuardsEmptyLevels) {
  SimCounters C;
  EXPECT_EQ(C.missRate(0), 0.0);
  EXPECT_EQ(C.missRate(7), 0.0); // Out-of-range level.
  C.Accesses[1] = 100;
  C.Misses[1] = 25;
  EXPECT_DOUBLE_EQ(C.missRate(1), 0.25);
}
