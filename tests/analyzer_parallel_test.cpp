//===- tests/analyzer_parallel_test.cpp - Parallel analyzer ----*- C++ -*-===//
//
// The parallel offline analyzer must be byte-identical to the serial
// path: per-object analyses are independent, counters aggregate in
// object order, and integer affinity sums are order-exact. This suite
// proves it differentially over randomized profiles — every rendered
// surface (hot-object table, per-object tables, advice, DOT, JSON) is
// compared as bytes between --jobs=1 and --jobs=4 runs, twice at
// jobs=4 to also catch schedule-dependent output.
//
// Labeled `tsan` so the ThreadSanitizer preset covers the analyzer's
// fan-out.
//
//===----------------------------------------------------------------------===//

#include "core/Advice.h"
#include "core/Report.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace structslim;
using namespace structslim::core;
using structslim::profile::Profile;
using structslim::profile::StreamRecord;

namespace {

/// Builds a randomized many-object, many-loop profile. Seeded: the
/// same seed always builds the same profile.
Profile makeRandomProfile(uint64_t Seed) {
  Rng R(Seed);
  Profile Prof;
  Prof.SamplePeriod = 10000;
  unsigned NumObjects = 1 + static_cast<unsigned>(R.nextBelow(24));
  for (unsigned Obj = 0; Obj != NumObjects; ++Obj) {
    std::string Name = "obj" + std::to_string(Obj);
    uint32_t Idx = Prof.getOrCreateObject(Name);
    uint64_t Start = 0x10000 * (Obj + 1);
    profile::ObjectAgg &Agg = Prof.Objects[Idx];
    Agg.Name = Name;
    Agg.Start = Start;
    Agg.Size = 1 << 20;
    unsigned NumStreams = 1 + static_cast<unsigned>(R.nextBelow(40));
    for (unsigned S = 0; S != NumStreams; ++S) {
      uint64_t Latency = 1 + R.nextBelow(1000);
      Agg.SampleCount += 1;
      Agg.LatencySum += Latency;
      Prof.TotalSamples += 1;
      Prof.TotalLatency += Latency;
      StreamRecord &Rec =
          Prof.getOrCreateStream(/*Ip=*/(Obj << 16) | S, Idx);
      Rec.LoopId = static_cast<int32_t>(R.nextBelow(12)) - 1; // -1..10.
      Rec.AccessSize = 8;
      Rec.SampleCount += 1;
      Rec.LatencySum += Latency;
      Rec.UniqueAddrCount = 1 + R.nextBelow(20);
      Rec.StrideGcd = 8ull << R.nextBelow(5); // 8..128.
      Rec.ObjectStart = Start;
      // Mostly valid representative addresses; ~1 in 8 streams is
      // inconsistent (RepAddr below the object base) to exercise the
      // skip path under both executors.
      Rec.RepAddr = R.nextBelow(8) == 0 ? Start - 64 - R.nextBelow(256)
                                        : Start + R.nextBelow(4096);
    }
  }
  return Prof;
}

/// Renders every surface of the analysis into one string.
std::string renderEverything(const AnalysisResult &Result,
                             const Profile &Prof,
                             const AnalysisConfig &Config) {
  std::string Out = renderHotObjects(Result);
  for (const ObjectAnalysis &O : Result.Objects) {
    Out += renderFieldTable(O);
    Out += renderFieldLevelTable(O);
    Out += renderLoopTable(O);
    Out += renderAffinityMatrix(O);
    Out += renderAdviceText(makeSplitPlan(O), O);
    Out += affinityGraphDot(O);
  }
  // Fixed (zero) stats: the timing fields are the one part of the JSON
  // that legitimately differs between runs.
  Out += renderJsonReport(Result, Prof, Config, ReportStats(), {});
  return Out;
}

} // namespace

TEST(AnalyzerParallel, ByteIdenticalToSerialOnRandomProfiles) {
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    Profile Prof = makeRandomProfile(Seed);

    AnalysisConfig Serial;
    Serial.TopObjects = 8;
    Serial.Jobs = 1;
    AnalysisConfig Parallel = Serial;
    Parallel.Jobs = 4;

    AnalysisResult SerialResult =
        StructSlimAnalyzer(Serial).analyze(Prof);
    AnalysisResult ParallelResult =
        StructSlimAnalyzer(Parallel).analyze(Prof);
    AnalysisResult ParallelAgain =
        StructSlimAnalyzer(Parallel).analyze(Prof);

    std::string SerialText = renderEverything(SerialResult, Prof, Serial);
    std::string ParallelText =
        renderEverything(ParallelResult, Prof, Parallel);
    std::string ParallelAgainText =
        renderEverything(ParallelAgain, Prof, Parallel);
    // The config block prints the requested job count, which is the
    // one intended difference; neutralize it before comparing.
    size_t Pos;
    std::string JobsOne = "\"jobs\": 1", JobsFour = "\"jobs\": 4";
    while ((Pos = ParallelText.find(JobsFour)) != std::string::npos)
      ParallelText.replace(Pos, JobsFour.size(), JobsOne);
    while ((Pos = ParallelAgainText.find(JobsFour)) != std::string::npos)
      ParallelAgainText.replace(Pos, JobsFour.size(), JobsOne);

    ASSERT_EQ(SerialText, ParallelText) << "seed " << Seed;
    ASSERT_EQ(ParallelText, ParallelAgainText) << "seed " << Seed;
  }
}

TEST(AnalyzerParallel, AutoJobsMatchesSerialToo) {
  Profile Prof = makeRandomProfile(12345);
  AnalysisConfig Auto; // Jobs = 0: defaultThreadCount.
  Auto.TopObjects = 6;
  AnalysisConfig Serial = Auto;
  Serial.Jobs = 1;
  AnalysisResult A = StructSlimAnalyzer(Auto).analyze(Prof);
  AnalysisResult B = StructSlimAnalyzer(Serial).analyze(Prof);
  EXPECT_EQ(renderHotObjects(A), renderHotObjects(B));
  ASSERT_EQ(A.Objects.size(), B.Objects.size());
  for (size_t I = 0; I != A.Objects.size(); ++I) {
    EXPECT_EQ(A.Objects[I].Affinity, B.Objects[I].Affinity);
    EXPECT_EQ(A.Objects[I].Clusters, B.Objects[I].Clusters);
    EXPECT_EQ(A.Objects[I].SkippedStreams, B.Objects[I].SkippedStreams);
  }
  EXPECT_EQ(A.Stats.SkippedInconsistentStreams,
            B.Stats.SkippedInconsistentStreams);
}
