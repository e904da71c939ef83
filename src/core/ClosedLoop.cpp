//===- core/ClosedLoop.cpp ------------------------------------*- C++ -*-===//

#include "core/ClosedLoop.h"

#include "ir/Verifier.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "transform/StructSplitter.h"

#include <cmath>
#include <cstdio>
#include <sstream>

using namespace structslim;
using namespace structslim::core;

const char *structslim::core::applyModeName(ApplyMode Mode) {
  switch (Mode) {
  case ApplyMode::None:
    return "none";
  case ApplyMode::IrSplit:
    return "ir-split";
  case ApplyMode::FieldMapRebuild:
    return "fieldmap-rebuild";
  }
  return "none";
}

double SimCounters::missRate(unsigned Level) const {
  if (Level >= 3 || Accesses[Level] == 0)
    return 0.0;
  return static_cast<double>(Misses[Level]) /
         static_cast<double>(Accesses[Level]);
}

unsigned VerifyReport::countMode(ApplyMode Mode) const {
  unsigned N = 0;
  for (const WorkloadVerdict &V : Workloads)
    N += V.Mode == Mode;
  return N;
}

unsigned VerifyReport::countImproved() const {
  unsigned N = 0;
  for (const WorkloadVerdict &V : Workloads)
    N += V.improved();
  return N;
}

unsigned VerifyReport::countRegressed() const {
  unsigned N = 0;
  for (const WorkloadVerdict &V : Workloads)
    N += V.regressed();
  return N;
}

unsigned VerifyReport::countMismatched() const {
  unsigned N = 0;
  for (const WorkloadVerdict &V : Workloads)
    N += !V.ResultsMatch;
  return N;
}

bool VerifyReport::allOk() const {
  for (const WorkloadVerdict &V : Workloads)
    if (!V.ok())
      return false;
  return true;
}

namespace {

SimCounters countersOf(const runtime::RunResult &R) {
  SimCounters C;
  C.ElapsedCycles = R.ElapsedCycles;
  C.Instructions = R.Instructions;
  C.MemoryAccesses = R.MemoryAccesses;
  for (unsigned Level = 0; Level != 3; ++Level) {
    C.Accesses[Level] = R.Accesses[Level];
    C.Misses[Level] = R.Misses[Level];
  }
  return C;
}

} // namespace

WorkloadVerdict
structslim::core::verifyWorkload(const workloads::Workload &W,
                                 const ClosedLoopConfig &Config) {
  WorkloadVerdict V;
  V.Name = W.name();
  V.Suite = W.suite();
  ir::StructLayout Hot = W.hotLayout();
  V.ActualStructSize = Hot.getSize();
  transform::FieldMap Identity(Hot);

  // 1-2. Profile the original layout and run the offline analyzer.
  workloads::WorkloadRun Profiled =
      workloads::runWorkload(W, Identity, Config.Driver, /*Attach=*/true);
  StructSlimAnalyzer Analyzer(*Profiled.CodeMap, Config.Driver.Analysis);
  Analyzer.registerLayout(W.hotObjectName(), Hot);
  AnalysisResult Analysis = Analyzer.analyze(Profiled.Merged);

  // 3. Advice for the hot object, plus the what-if projection.
  if (const ObjectAnalysis *HotObj = Analysis.findObject(W.hotObjectName())) {
    V.Plan = makeSplitPlan(*HotObj, &Hot);
    V.InferredStructSize = HotObj->StructSize;
    V.SizeConfidence = HotObj->SizeConfidence;
    V.HotShare = HotObj->HotShare;
    V.Samples = HotObj->SampleCount;
    V.TruncatedStreams = HotObj->TruncatedStreams;
    V.ReservoirTruncated = HotObj->ReservoirTruncated;
    BenefitEstimate Est =
        estimateSplitBenefit(*HotObj, V.Plan, Config.MemoryShare);
    V.PredictedSpeedup = Est.PredictedSpeedup;
  } else {
    V.Plan.ObjectName = W.hotObjectName();
    V.FallbackReason =
        "hot object '" + W.hotObjectName() + "' not significant in the profile";
  }

  // Baseline: the original layout, profiler detached.
  workloads::WorkloadRun Baseline =
      workloads::runWorkload(W, Identity, Config.Driver, /*Attach=*/false);
  V.Before = countersOf(Baseline.Result);

  // 4. Apply the plan and re-simulate under the identical RunConfig.
  if (!V.Plan.isSplit()) {
    V.Mode = ApplyMode::None;
    if (V.FallbackReason.empty())
      V.FallbackReason = "advice keeps the structure whole";
    V.After = V.Before;
  } else {
    // Path 1: rewrite the built IR through the allocation token.
    runtime::RunConfig DetachedCfg = Config.Driver.Run;
    DetachedCfg.AttachProfiler = false;
    runtime::ThreadedRuntime Runtime(DetachedCfg);
    workloads::BuiltWorkload Built =
        W.build(Runtime.machine(), Identity, Config.Driver.Scale);

    std::string Err;
    std::unique_ptr<ir::Program> Split;
    if (uint32_t Token = Built.Program->findToken(W.hotObjectName()))
      Split = transform::splitArrayOfStructs(*Built.Program, Token, Hot,
                                             V.Plan, &Err);
    else
      Err = "program carries no allocation token for object '" +
            W.hotObjectName() + "'";
    if (Split)
      if (std::string VerifyErr = ir::verify(*Split); !VerifyErr.empty()) {
        Split.reset();
        Err = "split program failed IR verification: " + VerifyErr;
      }

    if (Split) {
      // cloneProgram preserves function ids, so the original phase
      // plan drives the rewritten program unchanged.
      V.Mode = ApplyMode::IrSplit;
      analysis::CodeMap SplitMap(*Split);
      for (const auto &Phase : Built.Phases)
        Runtime.runPhase(*Split, &SplitMap, Phase);
      runtime::RunResult After = Runtime.finish();
      V.After = countersOf(After);
      V.ResultsMatch = After.ReturnValues == Baseline.Result.ReturnValues;
    } else {
      // Path 2: the paper's manual source transformation, mechanized —
      // rebuild the workload under the split FieldMap.
      V.Mode = ApplyMode::FieldMapRebuild;
      V.FallbackReason = Err;
      transform::FieldMap SplitMap(Hot, V.Plan);
      workloads::WorkloadRun AfterRun =
          workloads::runWorkload(W, SplitMap, Config.Driver, /*Attach=*/false);
      V.After = countersOf(AfterRun.Result);
      V.ResultsMatch =
          AfterRun.Result.ReturnValues == Baseline.Result.ReturnValues;
    }
  }

  // 5. Deltas.
  if (V.After.ElapsedCycles != 0)
    V.MeasuredSpeedup = static_cast<double>(V.Before.ElapsedCycles) /
                        static_cast<double>(V.After.ElapsedCycles);
  for (unsigned Level = 0; Level != 3; ++Level) {
    double BeforeRate = V.Before.missRate(Level);
    if (BeforeRate > 0)
      V.MissRateReduction[Level] =
          (BeforeRate - V.After.missRate(Level)) / BeforeRate;
  }
  return V;
}

VerifyReport structslim::core::verifyWorkloads(
    const std::vector<std::unique_ptr<workloads::Workload>> &Ws,
    const ClosedLoopConfig &Config) {
  VerifyReport Report;
  for (const auto &W : Ws)
    Report.Workloads.push_back(verifyWorkload(*W, Config));
  return Report;
}

// --- Rendering ----------------------------------------------------------

std::string structslim::core::renderVerifyText(const VerifyReport &Report) {
  TablePrinter Table;
  Table.setHeader({"Workload", "Suite", "Mode", "Size", "HotShare", "Pred",
                   "Meas", "dL1", "dL2", "dL3", "OK"});
  for (const WorkloadVerdict &V : Report.Workloads) {
    std::string Size = std::to_string(V.InferredStructSize) + "/" +
                       std::to_string(V.ActualStructSize) +
                       (V.sizeExact() ? "" : " !");
    Table.addRow({V.Name, V.Suite, applyModeName(V.Mode), Size,
                  formatPercent(V.HotShare), formatTimes(V.PredictedSpeedup),
                  formatTimes(V.MeasuredSpeedup),
                  formatPercent(V.MissRateReduction[0]),
                  formatPercent(V.MissRateReduction[1]),
                  formatPercent(V.MissRateReduction[2]),
                  V.ok() ? "yes" : "NO"});
  }
  std::ostringstream OS;
  OS << Table.toString();
  OS << "\n";
  for (const WorkloadVerdict &V : Report.Workloads)
    if (V.Mode != ApplyMode::IrSplit && !V.FallbackReason.empty())
      OS << V.Name << ": " << applyModeName(V.Mode) << " ("
         << V.FallbackReason << ")\n";
  // A bounded-reservoir run that starved streams must say so: the size
  // column's evidence is truncated, not merely sparse.
  for (const WorkloadVerdict &V : Report.Workloads)
    if (V.ReservoirTruncated)
      OS << V.Name << ": reservoir truncated " << V.TruncatedStreams
         << " stream(s); size evidence incomplete\n";
  OS << "\n"
     << Report.Workloads.size() << " workload(s): "
     << Report.countMode(ApplyMode::IrSplit) << " ir-split, "
     << Report.countMode(ApplyMode::FieldMapRebuild) << " fieldmap-rebuild, "
     << Report.countMode(ApplyMode::None) << " unsplit; "
     << Report.countImproved() << " improved, " << Report.countRegressed()
     << " regressed, " << Report.countMismatched() << " mismatched\n";
  return OS.str();
}

namespace {

// Deterministic JSON rendering, the structslim-report conventions:
// %.9g numbers, never NaN/Inf, fixed key order.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
  return Buf;
}

std::string jsonString(const std::string &S) {
  return "\"" + jsonEscape(S) + "\"";
}

const char *jsonBool(bool B) { return B ? "true" : "false"; }

void renderCounters(std::ostream &OS, const SimCounters &C,
                    const std::string &Indent) {
  OS << "{\n";
  OS << Indent << "  \"elapsed_cycles\": " << C.ElapsedCycles << ",\n";
  OS << Indent << "  \"instructions\": " << C.Instructions << ",\n";
  OS << Indent << "  \"memory_accesses\": " << C.MemoryAccesses << ",\n";
  OS << Indent << "  \"accesses\": [" << C.Accesses[0] << ", " << C.Accesses[1]
     << ", " << C.Accesses[2] << "],\n";
  OS << Indent << "  \"misses\": [" << C.Misses[0] << ", " << C.Misses[1]
     << ", " << C.Misses[2] << "],\n";
  OS << Indent << "  \"miss_rates\": [" << jsonNumber(C.missRate(0)) << ", "
     << jsonNumber(C.missRate(1)) << ", " << jsonNumber(C.missRate(2))
     << "]\n";
  OS << Indent << "}";
}

} // namespace

std::string
structslim::core::renderVerifyJson(const VerifyReport &Report,
                                   const ClosedLoopConfig &Config) {
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"schema_version\": 1,\n";
  OS << "  \"generator\": \"structslim-verify\",\n";

  const workloads::DriverConfig &D = Config.Driver;
  OS << "  \"config\": {\n";
  OS << "    \"scale\": " << jsonNumber(D.Scale) << ",\n";
  OS << "    \"sampling_period\": " << D.Run.Sampling.Period << ",\n";
  OS << "    \"reservoir_capacity\": " << D.Run.Sampling.ReservoirCapacity
     << ",\n";
  OS << "    \"sample_budget_per_maccess\": "
     << D.Run.Sampling.SampleBudgetPerMAccess << ",\n";
  OS << "    \"quantum\": " << D.Run.Quantum << ",\n";
  OS << "    \"affinity_threshold\": " << jsonNumber(D.Analysis.AffinityThreshold)
     << ",\n";
  OS << "    \"min_unique_addrs\": " << D.Analysis.MinUniqueAddrs << ",\n";
  OS << "    \"memory_share\": " << jsonNumber(Config.MemoryShare) << ",\n";
  // Constant: there is one simulation placement; the key stays so the
  // document's schema is unchanged.
  OS << "    \"pipeline\": \"inline\"\n";
  OS << "  },\n";

  OS << "  \"workloads\": [\n";
  for (size_t I = 0; I != Report.Workloads.size(); ++I) {
    const WorkloadVerdict &V = Report.Workloads[I];
    OS << "    {\n";
    OS << "      \"name\": " << jsonString(V.Name) << ",\n";
    OS << "      \"suite\": " << jsonString(V.Suite) << ",\n";
    OS << "      \"mode\": " << jsonString(applyModeName(V.Mode)) << ",\n";
    OS << "      \"fallback_reason\": " << jsonString(V.FallbackReason)
       << ",\n";
    OS << "      \"plan\": " << renderSplitPlanJson(V.Plan, "      ").substr(6)
       << ",\n";
    OS << "      \"agreement\": {\n";
    OS << "        \"inferred_struct_size\": " << V.InferredStructSize
       << ",\n";
    OS << "        \"actual_struct_size\": " << V.ActualStructSize << ",\n";
    OS << "        \"size_exact\": " << jsonBool(V.sizeExact()) << ",\n";
    OS << "        \"size_confidence\": " << jsonNumber(V.SizeConfidence)
       << ",\n";
    OS << "        \"hot_share\": " << jsonNumber(V.HotShare) << ",\n";
    OS << "        \"samples\": " << V.Samples << ",\n";
    OS << "        \"truncated_streams\": " << V.TruncatedStreams << ",\n";
    OS << "        \"reservoir_truncated\": "
       << jsonBool(V.ReservoirTruncated) << "\n";
    OS << "      },\n";
    OS << "      \"before\": ";
    renderCounters(OS, V.Before, "      ");
    OS << ",\n";
    OS << "      \"after\": ";
    renderCounters(OS, V.After, "      ");
    OS << ",\n";
    OS << "      \"delta\": {\n";
    OS << "        \"measured_speedup\": " << jsonNumber(V.MeasuredSpeedup)
       << ",\n";
    OS << "        \"predicted_speedup\": " << jsonNumber(V.PredictedSpeedup)
       << ",\n";
    OS << "        \"prediction_ratio\": "
       << jsonNumber(V.MeasuredSpeedup > 0
                         ? V.PredictedSpeedup / V.MeasuredSpeedup
                         : 0)
       << ",\n";
    OS << "        \"miss_rate_reduction\": ["
       << jsonNumber(V.MissRateReduction[0]) << ", "
       << jsonNumber(V.MissRateReduction[1]) << ", "
       << jsonNumber(V.MissRateReduction[2]) << "]\n";
    OS << "      },\n";
    OS << "      \"results_match\": " << jsonBool(V.ResultsMatch) << ",\n";
    OS << "      \"improved\": " << jsonBool(V.improved()) << ",\n";
    OS << "      \"regressed\": " << jsonBool(V.regressed()) << "\n";
    OS << "    }" << (I + 1 != Report.Workloads.size() ? "," : "") << "\n";
  }
  OS << "  ],\n";

  OS << "  \"summary\": {\n";
  OS << "    \"workloads\": " << Report.Workloads.size() << ",\n";
  OS << "    \"ir_split\": " << Report.countMode(ApplyMode::IrSplit) << ",\n";
  OS << "    \"fieldmap_rebuild\": "
     << Report.countMode(ApplyMode::FieldMapRebuild) << ",\n";
  OS << "    \"unsplit\": " << Report.countMode(ApplyMode::None) << ",\n";
  OS << "    \"improved\": " << Report.countImproved() << ",\n";
  OS << "    \"regressed\": " << Report.countRegressed() << ",\n";
  OS << "    \"results_mismatch\": " << Report.countMismatched() << ",\n";
  OS << "    \"all_ok\": " << jsonBool(Report.allOk()) << "\n";
  OS << "  }\n";
  OS << "}\n";
  return OS.str();
}
