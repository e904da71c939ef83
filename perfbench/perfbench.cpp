//===- perfbench/perfbench.cpp - End-to-end pipeline benchmark -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Drives the real StructSlim pipeline from one process and prints one
// JSON result line as the last line of stdout. perfbench/run.py builds
// this program and runs it; perfbench/METRICS.md defines every metric,
// the layer map and why each workload exists.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--work-dir=<dir>] [--golden=<file>] [--trace-file=<file>]
//             [--tiny] [--expect-digest=<digest>]
//   perfbench --census [--seed=<n>]
//
// Workloads:
//   paper-closed-loop  core::verifyWorkload for each of the seven paper
//                      programs at scale 1.0, as core::verifyWorkloads
//                      does (Serial engine, Inline pipeline,
//                      merge/analyzer jobs = 2).
//   default-profile    the seven programs under the default RunConfig
//                      (Auto engine, Auto pipeline): one detached and one
//                      profiled run each, shards dumped, read back,
//                      merged, analyzed, rendered as JSON plus advice.
//   shard-report       structslim-report --json work over seeded shards
//                      written in set-up, a fresh analyzer per report.
//
// --census prints the stream mix of the paper programs' real profiles,
// which shard-report's shard generator follows.
//
// A run tells the program it has two CPUs (STRUCTSLIM_THREADS=2), runs
// merge and analyzer jobs two wide, and confines itself to two of the
// host's CPUs (default-profile: one). It sets up five times, then runs
// passes of the workload until --seconds have elapsed, setting up again
// between passes so that set-up takes a thirtieth of the run (setup_s
// is the median). Each pass times its programs one by one; wall_s sums
// their medians over the passes. With --trace=1, untraced and traced
// passes alternate: the traced ones record benchmark-side spans around
// every call into a StructSlim layer and give the per-layer metrics,
// the untraced ones give trace.overhead's base.
//
// Correctness: every pass must produce the same output digest (and
// --expect-digest, when given); every closed-loop verdict keeps its
// results and does not regress; at seed 0 (the sampler's default seed)
// every inferred struct size is exact; the traced closed loop's
// before/after counters equal the untraced verdicts'; and --golden
// pins structslim-verify's --scale=0.1 --jobs=1 document byte for byte.
// Every failed check counts one failed operation.
//
//===----------------------------------------------------------------------===//

#include "HostFeatures.h"
#include "Trace.h"

#include "analysis/CodeMap.h"
#include "core/Advice.h"
#include "core/Analyzer.h"
#include "core/BenefitModel.h"
#include "core/ClosedLoop.h"
#include "core/Report.h"
#include "ir/Verifier.h"
#include "profile/MergeTree.h"
#include "profile/ProfileIO.h"
#include "runtime/ThreadedRuntime.h"
#include "support/Checksum.h"
#include "support/Random.h"
#include "transform/FieldMap.h"
#include "transform/StructSplitter.h"
#include "workloads/Registry.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sched.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace structslim;
using perfbench::Tracer;

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Begin) {
  return std::chrono::duration<double>(Clock::now() - Begin).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// --seed=0 selects pmu::SamplingConfig's default seed.
uint64_t samplingSeed(uint64_t Seed) {
  return pmu::SamplingConfig().Seed + Seed;
}

unsigned hostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The CPUs the program is told it has (STRUCTSLIM_THREADS sizes the
/// shared pool and drives the Auto engine and pipeline choice), and the
/// merge and analyzer jobs. On a shared 4-vCPU guest, a run that keeps
/// every vCPU busy measures the host: the Auto engine's pool, lane and
/// merge threads outnumber the CPUs and wait by yielding, and a 4-way
/// fork-join waits for whichever vCPU the host stole last.
constexpr unsigned ProgramCpus = 2;

/// CPUs the process is confined to, set once by confineCpus().
unsigned BenchCpus = 0;

/// Confines the process to the first \p Cpus CPUs it may run on and
/// tells the program it has ProgramCpus. Runs before any thread starts,
/// so every thread inherits the mask.
void confineCpus(unsigned Cpus) {
  cpu_set_t Allowed, Use;
  CPU_ZERO(&Use);
  unsigned N = 0;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
    for (int Cpu = 0; Cpu != CPU_SETSIZE && N != Cpus; ++Cpu)
      if (CPU_ISSET(Cpu, &Allowed)) {
        CPU_SET(Cpu, &Use);
        ++N;
      }
  if (N != 0 && sched_setaffinity(0, sizeof(Use), &Use) == 0)
    BenchCpus = N;
  setenv("STRUCTSLIM_THREADS", std::to_string(ProgramCpus).c_str(), 1);
}

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  bool Census = false;
  std::string ExpectDigest;
  std::string WorkDir = ".";
  std::string Golden;
  std::string TraceFile;
};

// --- Per-pass results ----------------------------------------------------

/// Layer counters of one pass, summed over its runs and reports.
struct LayerCounts {
  uint64_t Instructions = 0;
  uint64_t MemAccesses = 0;
  uint64_t ProfiledAccesses = 0;
  uint64_t Samples = 0;
  uint64_t ParallelPhases = 0;
  uint64_t SerialPhases = 0;
  uint64_t ProducerStalls = 0;
  uint64_t QueueDepthMax = 0;
  uint64_t Accesses[3] = {0, 0, 0};
  uint64_t Misses[3] = {0, 0, 0};
  uint64_t ShardBytes = 0;
  uint64_t Shards = 0;
  uint64_t ShardsSkipped = 0;
  uint64_t PeakResident = 0;
  uint64_t Streams = 0;
  uint64_t SparseStreams = 0;
  uint64_t LowConfidenceSizes = 0;
  uint64_t IrSplit = 0;
  uint64_t FieldMapRebuild = 0;

  void addRun(const runtime::RunResult &R, bool Profiled) {
    Instructions += R.Instructions;
    MemAccesses += R.MemoryAccesses;
    if (Profiled)
      ProfiledAccesses += R.MemoryAccesses;
    Samples += R.Samples;
    ParallelPhases += R.ParallelPhases;
    SerialPhases += R.SerialPhases;
    ProducerStalls += R.ProducerStalls;
    QueueDepthMax = std::max(QueueDepthMax, R.QueueDepthMax);
    for (unsigned L = 0; L != 3; ++L) {
      Accesses[L] += R.Accesses[L];
      Misses[L] += R.Misses[L];
    }
  }
  void addLoad(const profile::MergeLoadResult &Load) {
    Shards += Load.Loaded.size();
    ShardsSkipped += Load.Skipped.size();
    PeakResident = std::max<uint64_t>(PeakResident, Load.PeakResidentProfiles);
  }
  void addAnalysis(const core::AnalysisStats &S) {
    Streams += S.StreamsAnalyzed;
    SparseStreams += S.SparseStreams;
    LowConfidenceSizes += S.LowConfidenceSizes;
  }
};

/// What one pass produced.
struct PassResult {
  /// Deterministic output bytes; the pass digest covers them.
  std::string Output;
  unsigned Attempted = 0; ///< Program runs plus reports.
  unsigned Failed = 0;    ///< Operations with a failed check.
  uint64_t SimAccesses = 0;
  /// Host seconds of each program (or report) of the pass, in order;
  /// wall_s sums their medians over passes.
  std::vector<double> UnitSeconds;
  /// Host seconds of simulation; 0 charges wall_s.
  double SimSeconds = 0;
  double ProfiledSeconds = 0;
  double DetachedSeconds = 0;
  /// Geometric mean of the measured speedups of applied advice; 1 when
  /// the pass applies none (the empty product).
  double SpeedupGeomean = 1;
  unsigned SizeExact = 0;
  LayerCounts Counts;
};

/// Reports a failed check on stderr (the first few only).
void reportFailure(const std::string &Why) {
  static unsigned Printed = 0;
  if (Printed++ < 20)
    std::cerr << "perfbench: check failed: " << Why << "\n";
}

/// Counts one failed operation and reports why.
void fail(PassResult &R, const std::string &Why) {
  ++R.Failed;
  reportFailure(Why);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 1;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

std::string countersText(const runtime::RunResult &R) {
  std::ostringstream OS;
  OS << R.ElapsedCycles << " " << R.Instructions << " " << R.MemoryAccesses;
  for (unsigned L = 0; L != 3; ++L)
    OS << " " << R.Accesses[L] << "/" << R.Misses[L];
  OS << " ret";
  for (uint64_t V : R.ReturnValues)
    OS << " " << V;
  return OS.str();
}

// --- Calls into the program, one span each ------------------------------

/// One simulated program run: the calls workloads::runWorkload makes,
/// without its in-memory merge.
struct ProgramRun {
  runtime::RunResult Result;
  std::unique_ptr<analysis::CodeMap> CodeMap;
  std::string Error;
};

ProgramRun runProgram(const workloads::Workload &W,
                      const transform::FieldMap &Map,
                      const runtime::RunConfig &Cfg, double Scale,
                      Tracer &T) {
  ProgramRun Out;
  std::optional<runtime::ThreadedRuntime> Runtime;
  {
    Tracer::Scope S(T, "runtime", "ThreadedRuntime");
    Runtime.emplace(Cfg);
  }
  workloads::BuiltWorkload Built;
  {
    Tracer::Scope S(T, "workloads", "Workload::build");
    Built = W.build(Runtime->machine(), Map, Scale);
  }
  {
    Tracer::Scope S(T, "ir", "ir::verify");
    Out.Error = ir::verify(*Built.Program);
  }
  if (!Out.Error.empty()) {
    Out.Error = W.name() + " built invalid IR: " + Out.Error;
    return Out;
  }
  {
    Tracer::Scope S(T, "analysis", "CodeMap");
    Out.CodeMap = std::make_unique<analysis::CodeMap>(*Built.Program);
  }
  for (const auto &Phase : Built.Phases) {
    Tracer::Scope S(T, "runtime", "runPhase");
    Runtime->runPhase(*Built.Program, Out.CodeMap.get(), Phase);
  }
  Tracer::Scope S(T, "runtime", "finish");
  Out.Result = Runtime->finish();
  return Out;
}

/// Set-up shared by the program workloads: build, verify and map every
/// program once. \returns the number of programs that failed.
unsigned checkPrograms(
    const std::vector<std::unique_ptr<workloads::Workload>> &Ws,
    double Scale) {
  unsigned Failures = 0;
  for (const auto &W : Ws) {
    runtime::RunConfig Cfg;
    Cfg.AttachProfiler = false;
    runtime::ThreadedRuntime Runtime(Cfg);
    transform::FieldMap Identity(W->hotLayout());
    workloads::BuiltWorkload Built =
        W->build(Runtime.machine(), Identity, Scale);
    if (std::string Err = ir::verify(*Built.Program); !Err.empty()) {
      std::cerr << "perfbench: " << W->name() << " built invalid IR: " << Err
                << "\n";
      ++Failures;
      continue;
    }
    analysis::CodeMap Map(*Built.Program);
  }
  return Failures;
}

// --- Workloads -----------------------------------------------------------

class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;
  /// Everything a pass needs that is not part of the measured work.
  /// Called several times; each call replaces the previous state.
  /// \returns the number of operations that failed in set-up.
  virtual unsigned setup() = 0;
  virtual PassResult pass(Tracer &T) = 0;
  /// Untimed checks made once per run; adds its operations.
  virtual void finalChecks(unsigned & /*Attempted*/, unsigned & /*Failed*/) {}
  /// CPUs the run is confined to.
  virtual unsigned cpus() const { return ProgramCpus; }
};

core::SimCounters countersOf(const runtime::RunResult &R) {
  core::SimCounters C;
  C.ElapsedCycles = R.ElapsedCycles;
  C.Instructions = R.Instructions;
  C.MemoryAccesses = R.MemoryAccesses;
  for (unsigned L = 0; L != 3; ++L) {
    C.Accesses[L] = R.Accesses[L];
    C.Misses[L] = R.Misses[L];
  }
  return C;
}

bool sameCounters(const core::SimCounters &A, const core::SimCounters &B) {
  return A.ElapsedCycles == B.ElapsedCycles &&
         A.Instructions == B.Instructions &&
         A.MemoryAccesses == B.MemoryAccesses && A.Accesses == B.Accesses &&
         A.Misses == B.Misses;
}

/// paper-closed-loop: profile, merge, analyze, advise, split, re-simulate.
class ClosedLoopBench : public BenchWorkload {
public:
  explicit ClosedLoopBench(const Options &Opts)
      : Opts(Opts), CheckSizes(Opts.Seed == 0 && !Opts.Tiny) {
    Config.Driver.Scale = Opts.Tiny ? 0.05 : 1.0;
    Config.Driver.Run.Sampling.Seed = samplingSeed(Opts.Seed);
    Config.Driver.Run.Engine = runtime::EngineKind::Serial;
    Config.Driver.Run.Pipeline = runtime::PipelineKind::Inline;
    Config.Driver.WorkerThreads = ProgramCpus;
    Config.Driver.Analysis.Jobs = ProgramCpus;
  }

  unsigned setup() override {
    Ws = workloads::makePaperWorkloads();
    return checkPrograms(Ws, Config.Driver.Scale);
  }

  PassResult pass(Tracer &T) override {
    core::VerifyReport Report;
    PassResult R;
    if (T.enabled()) {
      for (const auto &W : Ws)
        Report.Workloads.push_back(tracedVerdict(*W, T, R.Counts));
    } else {
      // core::verifyWorkloads' loop, with each verifyWorkload timed.
      for (const auto &W : Ws) {
        auto Begin = Clock::now();
        Report.Workloads.push_back(core::verifyWorkload(*W, Config));
        R.UnitSeconds.push_back(secondsSince(Begin));
      }
    }
    {
      Tracer::Scope S(T, "core", "renderVerifyJson");
      R.Output = core::renderVerifyJson(Report, Config);
    }

    std::vector<double> Speedups;
    for (const core::WorkloadVerdict &V : Report.Workloads) {
      ++R.Attempted;
      if (!V.ResultsMatch)
        fail(R, V.Name + ": split changed the program's results");
      else if (V.regressed())
        fail(R, V.Name + ": split regressed simulated cycles");
      else if (CheckSizes && !V.sizeExact())
        fail(R, V.Name + ": inferred size " +
                    std::to_string(V.InferredStructSize) + " != declared " +
                    std::to_string(V.ActualStructSize));
      R.SizeExact += V.sizeExact();
      if (V.Mode != core::ApplyMode::None)
        Speedups.push_back(V.MeasuredSpeedup);
      // Profiled and detached runs of the original, plus the re-run.
      R.SimAccesses += 2 * V.Before.MemoryAccesses;
      if (V.Mode != core::ApplyMode::None)
        R.SimAccesses += V.After.MemoryAccesses;
    }
    R.SpeedupGeomean = geomean(Speedups);

    if (!T.enabled() && !Reference)
      Reference = Report;
    if (T.enabled() && Reference) {
      // The traced pass must describe the program that was timed.
      for (size_t I = 0; I != Report.Workloads.size(); ++I) {
        const core::WorkloadVerdict &Mine = Report.Workloads[I];
        const core::WorkloadVerdict &Ref = Reference->Workloads[I];
        if (!sameCounters(Mine.Before, Ref.Before) ||
            !sameCounters(Mine.After, Ref.After))
          fail(R, Mine.Name + ": traced before/after counters differ from "
                              "core::verifyWorkload's");
      }
    }
    return R;
  }

  void finalChecks(unsigned &Attempted, unsigned &Failed) override {
    if (Opts.Golden.empty())
      return;
    // structslim-verify --scale=0.1 --jobs=1 --json, byte for byte.
    ++Attempted;
    std::ifstream In(Opts.Golden, std::ios::binary);
    std::ostringstream Expected;
    Expected << In.rdbuf();
    core::ClosedLoopConfig Golden;
    Golden.Driver.Scale = 0.1;
    Golden.Driver.WorkerThreads = 1;
    Golden.Driver.Analysis.Jobs = 1;
    core::VerifyReport Report =
        core::verifyWorkloads(workloads::makePaperWorkloads(), Golden);
    if (!In || core::renderVerifyJson(Report, Golden) != Expected.str()) {
      ++Failed;
      reportFailure("verify JSON differs from " + Opts.Golden);
    }
  }

private:
  /// core::verifyWorkload's calls, made one by one with a span each.
  core::WorkloadVerdict tracedVerdict(const workloads::Workload &W,
                                      Tracer &T, LayerCounts &C) {
    Tracer::Scope Program(T, "bench", W.name());
    const workloads::DriverConfig &D = Config.Driver;
    core::WorkloadVerdict V;
    V.Name = W.name();
    V.Suite = W.suite();
    ir::StructLayout Hot = W.hotLayout();
    V.ActualStructSize = Hot.getSize();
    transform::FieldMap Identity(Hot);
    runtime::RunConfig Profiled = D.Run;
    Profiled.AttachProfiler = true;
    runtime::RunConfig Detached = D.Run;
    Detached.AttachProfiler = false;

    ProgramRun P = runProgram(W, Identity, Profiled, D.Scale, T);
    C.addRun(P.Result, true);
    profile::Profile Merged;
    {
      Tracer::Scope S(T, "profile", "mergeProfiles");
      Merged = profile::mergeProfiles(std::move(P.Result.Profiles),
                                      D.WorkerThreads);
    }
    core::AnalysisResult Analysis;
    {
      Tracer::Scope S(T, "core", "analyze");
      core::StructSlimAnalyzer Analyzer(*P.CodeMap, D.Analysis);
      Analyzer.registerLayout(W.hotObjectName(), Hot);
      Analysis = Analyzer.analyze(Merged);
    }
    C.addAnalysis(Analysis.Stats);
    {
      Tracer::Scope S(T, "core", "makeSplitPlan");
      if (const core::ObjectAnalysis *HotObj =
              Analysis.findObject(W.hotObjectName())) {
        V.Plan = core::makeSplitPlan(*HotObj, &Hot);
        V.InferredStructSize = HotObj->StructSize;
        V.SizeConfidence = HotObj->SizeConfidence;
        V.HotShare = HotObj->HotShare;
        V.Samples = HotObj->SampleCount;
        V.TruncatedStreams = HotObj->TruncatedStreams;
        V.ReservoirTruncated = HotObj->ReservoirTruncated;
        V.PredictedSpeedup =
            core::estimateSplitBenefit(*HotObj, V.Plan, Config.MemoryShare)
                .PredictedSpeedup;
      } else {
        V.Plan.ObjectName = W.hotObjectName();
        V.FallbackReason = "hot object '" + W.hotObjectName() +
                           "' not significant in the profile";
      }
    }

    ProgramRun Baseline = runProgram(W, Identity, Detached, D.Scale, T);
    C.addRun(Baseline.Result, false);
    V.Before = countersOf(Baseline.Result);

    if (!V.Plan.isSplit()) {
      V.Mode = core::ApplyMode::None;
      if (V.FallbackReason.empty())
        V.FallbackReason = "advice keeps the structure whole";
      V.After = V.Before;
    } else {
      std::optional<runtime::ThreadedRuntime> Runtime;
      {
        Tracer::Scope S(T, "runtime", "ThreadedRuntime");
        Runtime.emplace(Detached);
      }
      workloads::BuiltWorkload Built;
      {
        Tracer::Scope S(T, "workloads", "Workload::build");
        Built = W.build(Runtime->machine(), Identity, D.Scale);
      }
      std::string Err;
      std::unique_ptr<ir::Program> Split;
      {
        Tracer::Scope S(T, "transform", "splitArrayOfStructs");
        if (uint32_t Token = Built.Program->findToken(W.hotObjectName()))
          Split = transform::splitArrayOfStructs(*Built.Program, Token, Hot,
                                                 V.Plan, &Err);
        else
          Err = "program carries no allocation token for object '" +
                W.hotObjectName() + "'";
      }
      if (Split) {
        Tracer::Scope S(T, "ir", "ir::verify");
        if (std::string VerifyErr = ir::verify(*Split); !VerifyErr.empty()) {
          Split.reset();
          Err = "split program failed IR verification: " + VerifyErr;
        }
      }
      if (Split) {
        V.Mode = core::ApplyMode::IrSplit;
        ++C.IrSplit;
        std::optional<analysis::CodeMap> SplitMap;
        {
          Tracer::Scope S(T, "analysis", "CodeMap");
          SplitMap.emplace(*Split);
        }
        for (const auto &Phase : Built.Phases) {
          Tracer::Scope S(T, "runtime", "runPhase");
          Runtime->runPhase(*Split, &*SplitMap, Phase);
        }
        runtime::RunResult After;
        {
          Tracer::Scope S(T, "runtime", "finish");
          After = Runtime->finish();
        }
        C.addRun(After, false);
        V.After = countersOf(After);
        V.ResultsMatch = After.ReturnValues == Baseline.Result.ReturnValues;
      } else {
        V.Mode = core::ApplyMode::FieldMapRebuild;
        ++C.FieldMapRebuild;
        V.FallbackReason = Err;
        std::optional<transform::FieldMap> SplitMap;
        {
          Tracer::Scope S(T, "transform", "FieldMap");
          SplitMap.emplace(Hot, V.Plan);
        }
        ProgramRun AfterRun = runProgram(W, *SplitMap, Detached, D.Scale, T);
        C.addRun(AfterRun.Result, false);
        V.After = countersOf(AfterRun.Result);
        V.ResultsMatch =
            AfterRun.Result.ReturnValues == Baseline.Result.ReturnValues;
      }
    }

    if (V.After.ElapsedCycles != 0)
      V.MeasuredSpeedup = static_cast<double>(V.Before.ElapsedCycles) /
                          static_cast<double>(V.After.ElapsedCycles);
    for (unsigned L = 0; L != 3; ++L) {
      double BeforeRate = V.Before.missRate(L);
      if (BeforeRate > 0)
        V.MissRateReduction[L] =
            (BeforeRate - V.After.missRate(L)) / BeforeRate;
    }
    return V;
  }

  const Options &Opts;
  const bool CheckSizes;
  core::ClosedLoopConfig Config;
  std::vector<std::unique_ptr<workloads::Workload>> Ws;
  std::optional<core::VerifyReport> Reference;
};

/// default-profile: what a user of the profiler gets from the default
/// configuration.
class DefaultProfileBench : public BenchWorkload {
public:
  DefaultProfileBench(const Options &Opts, fs::path Dir)
      : Opts(Opts), Dir(std::move(Dir)) {
    Run.Sampling.Seed = samplingSeed(Opts.Seed);
    Analysis.Jobs = ProgramCpus;
  }

  /// One CPU: the program's threads share it. On two vCPUs, threads that
  /// wait by yielding burn one vCPU while the host has stolen the other;
  /// in a ten-seed set, five runs in a row took 1.3-2.4x the others. On
  /// one CPU a stolen moment stops every thread alike, so a pass costs
  /// the pipeline's total work, its threads' hand-offs included.
  unsigned cpus() const override { return 1; }

  unsigned setup() override {
    Ws = workloads::makePaperWorkloads();
    fs::create_directories(Dir);
    return checkPrograms(Ws, scale());
  }

  PassResult pass(Tracer &T) override {
    PassResult R;
    for (size_t I = 0; I != Ws.size(); ++I) {
      // Whichever run goes first meets the state the previous program
      // left; alternating the order cancels that from profile_slowdown.
      bool DetachedFirst = (UntracedPasses + I) % 2 == 0;
      auto Begin = Clock::now();
      runOne(*Ws[I], DetachedFirst, T, R);
      R.UnitSeconds.push_back(secondsSince(Begin));
    }
    if (!T.enabled())
      ++UntracedPasses;
    return R;
  }

private:
  double scale() const { return Opts.Tiny ? 0.05 : 0.1; }

  void runOne(const workloads::Workload &W, bool DetachedFirst, Tracer &T,
              PassResult &R) {
    Tracer::Scope Program(T, "bench", W.name());
    ir::StructLayout Hot = W.hotLayout();
    transform::FieldMap Identity(Hot);
    runtime::RunConfig Detached = Run;
    Detached.AttachProfiler = false;
    runtime::RunConfig Profiled = Run;
    Profiled.AttachProfiler = true;

    R.Attempted += 3; // Detached run, profiled run, report.
    ProgramRun D, P;
    auto Timed = [&](ProgramRun &Out, const runtime::RunConfig &Cfg,
                     double &Seconds) {
      auto Begin = Clock::now();
      Out = runProgram(W, Identity, Cfg, scale(), T);
      Seconds += secondsSince(Begin);
    };
    if (DetachedFirst) {
      Timed(D, Detached, R.DetachedSeconds);
      Timed(P, Profiled, R.ProfiledSeconds);
    } else {
      Timed(P, Profiled, R.ProfiledSeconds);
      Timed(D, Detached, R.DetachedSeconds);
    }
    if (!D.Error.empty() || !P.Error.empty()) {
      fail(R, D.Error.empty() ? P.Error : D.Error);
      return;
    }
    R.SimAccesses += D.Result.MemoryAccesses + P.Result.MemoryAccesses;
    R.SimSeconds += D.Result.WallSeconds + P.Result.WallSeconds;
    R.Counts.addRun(D.Result, false);
    R.Counts.addRun(P.Result, true);
    if (D.Result.ReturnValues != P.Result.ReturnValues)
      fail(R, W.name() + ": profiling changed the program's results");
    R.Output += W.name() + "\n" + countersText(D.Result) + "\n" +
                countersText(P.Result) + "\n";

    std::vector<std::string> Files, DumpFailures;
    {
      Tracer::Scope S(T, "profile", "dumpProfiles");
      Files = runtime::dumpProfiles(P.Result.Profiles, Dir.string(),
                                    "p" + std::to_string(Index++) + ".",
                                    &DumpFailures, &P.Result);
    }
    for (const std::string &F : DumpFailures)
      fail(R, "dump " + F);
    for (const std::string &F : Files)
      R.Counts.ShardBytes += fs::file_size(F);

    profile::MergeLoadResult Load;
    {
      Tracer::Scope S(T, "profile", "loadAndMergeProfiles");
      profile::MergeOptions MergeOpts;
      MergeOpts.WorkerThreads = ProgramCpus;
      Load = profile::loadAndMergeProfiles(Files, MergeOpts);
    }
    R.Counts.addLoad(Load);
    for (const std::string &F : Files)
      fs::remove(F);
    if (!Load.Skipped.empty() || Files.size() != P.Result.Profiles.size()) {
      fail(R, W.name() + ": " + std::to_string(Load.Skipped.size()) +
                  " shard(s) skipped, " + std::to_string(Files.size()) + "/" +
                  std::to_string(P.Result.Profiles.size()) + " written");
      return;
    }

    core::AnalysisResult Result;
    {
      Tracer::Scope S(T, "core", "analyze");
      core::StructSlimAnalyzer Analyzer(*P.CodeMap, Analysis);
      Analyzer.registerLayout(W.hotObjectName(), Hot);
      Result = Analyzer.analyze(Load.Merged);
    }
    R.Counts.addAnalysis(Result.Stats);

    const core::ObjectAnalysis *HotObj = Result.findObject(W.hotObjectName());
    core::SplitPlan Plan;
    if (HotObj) {
      Tracer::Scope S(T, "core", "makeSplitPlan");
      Plan = core::makeSplitPlan(*HotObj, &Hot);
    }
    {
      Tracer::Scope S(T, "core", "render");
      R.Output += renderReport(Result, Load);
      if (HotObj)
        R.Output += core::renderAdviceText(Plan, *HotObj, &Hot);
    }
    if (!HotObj)
      fail(R, W.name() + ": hot object '" + W.hotObjectName() +
                  "' missing from the report");
    else
      R.SizeExact += HotObj->StructSize == Hot.getSize();
  }

  std::string renderReport(const core::AnalysisResult &Result,
                           const profile::MergeLoadResult &Load) const {
    // Counts only: the timing fields would make the digest vary.
    core::ReportStats Stats;
    Stats.Jobs = ProgramCpus;
    Stats.ShardsMerged = Load.Loaded.size();
    Stats.ShardsSkipped = Load.Skipped.size();
    return core::renderJsonReport(Result, Load.Merged, Analysis, Stats,
                                  Load.Skipped);
  }

  const Options &Opts;
  fs::path Dir;
  runtime::RunConfig Run;
  core::AnalysisConfig Analysis;
  std::vector<std::unique_ptr<workloads::Workload>> Ws;
  unsigned Index = 0;
  unsigned UntracedPasses = 0;
};

/// shard-report: repeated structslim-report --json work over the shards
/// of a long many-thread job.
class ShardReportBench : public BenchWorkload {
public:
  ShardReportBench(const Options &Opts, fs::path Dir)
      : Opts(Opts), Dir(std::move(Dir)) {
    Analysis.Jobs = ProgramCpus;
  }

  unsigned setup() override {
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    Files.clear();
    Declared.clear();
    unsigned Failures = 0;
    for (unsigned S = 0; S != numShards(); ++S) {
      std::string Path = (Dir / ("job.thread" + std::to_string(S) +
                                 ".structslim"))
                             .string();
      std::string Err;
      if (!profile::writeProfileFile(makeShard(S), Path, &Err)) {
        std::cerr << "perfbench: " << Err << "\n";
        ++Failures;
        continue;
      }
      Files.push_back(Path);
    }
    return Failures;
  }

  PassResult pass(Tracer &T) override {
    auto Begin = Clock::now();
    PassResult R = report(T);
    R.UnitSeconds.push_back(secondsSince(Begin));
    return R;
  }

private:
  PassResult report(Tracer &T) {
    PassResult R;
    R.Attempted = 1;
    for (const std::string &F : Files)
      R.Counts.ShardBytes += fs::file_size(F);
    profile::MergeLoadResult Load;
    {
      Tracer::Scope S(T, "profile", "loadAndMergeProfiles");
      profile::MergeOptions MergeOpts;
      MergeOpts.WorkerThreads = ProgramCpus;
      Load = profile::loadAndMergeProfiles(Files, MergeOpts);
    }
    R.Counts.addLoad(Load);
    if (!Load.Skipped.empty() || Load.Loaded.size() != numShards()) {
      fail(R, std::to_string(Load.Skipped.size()) + " shard(s) skipped");
      return R;
    }
    core::AnalysisResult Result;
    {
      // A fresh analyzer per report: each report is a new process.
      Tracer::Scope S(T, "core", "analyze");
      core::StructSlimAnalyzer Analyzer(Analysis);
      Result = Analyzer.analyze(Load.Merged);
    }
    R.Counts.addAnalysis(Result.Stats);
    {
      Tracer::Scope S(T, "core", "render");
      core::ReportStats Stats;
      Stats.Jobs = ProgramCpus;
      Stats.ShardsMerged = Load.Loaded.size();
      R.Output = core::renderJsonReport(Result, Load.Merged, Analysis, Stats,
                                        Load.Skipped);
    }
    for (const core::ObjectAnalysis &Obj : Result.Objects) {
      core::SplitPlan Plan;
      {
        Tracer::Scope S(T, "core", "makeSplitPlan");
        Plan = core::makeSplitPlan(Obj);
      }
      Tracer::Scope S(T, "core", "render");
      R.Output += core::renderAdviceText(Plan, Obj);
      R.Output += core::affinityGraphDot(Obj);
    }
    for (const core::ObjectAnalysis &Obj : Result.Objects)
      R.SizeExact += Obj.StructSize == Declared[Obj.Key];
    if (Result.Objects.size() != Analysis.TopObjects ||
        R.SizeExact != Result.Objects.size())
      fail(R, std::to_string(R.SizeExact) + " of " +
                  std::to_string(Result.Objects.size()) +
                  " report objects have their declared struct size");
    return R;
  }

  unsigned numShards() const { return Opts.Tiny ? 8 : 64; }

  /// One thread's shard of a long many-thread job, in the shape of
  /// micro_merge's makeShard: shared objects with shared loops and IPs
  /// (each with a seeded struct size its dense streams stride over),
  /// thread-local heap objects, and rare-path sparse streams.
  ///
  /// The stream mix of the merged profile follows `perfbench --census`
  /// over the seven paper programs (perfbench/METRICS.md): the analyzed
  /// objects hold 12 sparse streams per 29 dense ones, the sparse ones
  /// have the unique-address counts in CensusSparseUnique and one sample
  /// per unique address, and a dense stream gathers about 95 samples.
  /// The job's size (objects, dense streams per object, shards) is
  /// chosen.
  profile::Profile makeShard(unsigned Shard) {
    // Unique-address counts of the census's 12 sparse streams.
    static constexpr uint64_t CensusSparseUnique[] = {2, 2, 3, 3, 4, 5,
                                                      5, 5, 5, 6, 9, 9};
    const unsigned SharedObjects = Opts.Tiny ? 6 : 24;
    const unsigned LocalObjects = 4;
    const unsigned DenseStreams = Opts.Tiny ? 8 : 32;
    // 12 sparse per 29 dense, rounded: 13 per 32.
    const unsigned SparseStreams = (DenseStreams * 12 + 14) / 29;
    const unsigned CctNodes = Opts.Tiny ? 32 : 256;
    Rng Layout(0x5eed0000 + Opts.Seed); // Same in every shard.
    Rng R(0x5eed0000 + Opts.Seed * 7919 + Shard + 1);
    profile::Profile P;
    P.ThreadId = Shard;
    P.SamplePeriod = 10000;
    for (unsigned Obj = 0; Obj != SharedObjects + LocalObjects; ++Obj) {
      bool Shared = Obj < SharedObjects;
      uint64_t Size = 8 * (3 + Layout.nextBelow(14)); // 24..128 bytes.
      std::string Key = Shared ? "obj" + std::to_string(Obj)
                               : "heap" + std::to_string(Shard) + "_" +
                                     std::to_string(Obj);
      Declared[Key] = Size;
      uint32_t Idx = P.getOrCreateObject(Key);
      uint64_t Start = 0x1000000ull * (Obj + 1);
      profile::ObjectAgg &Agg = P.Objects[Idx];
      Agg.Name = Key;
      Agg.Start = Start;
      Agg.Size = Size << 12;
      // Hot shared objects first; thread-local ones stay below the top.
      uint64_t Weight = Shared ? 40 + 8 * (SharedObjects - Obj) : 2;
      auto AddStream = [&](uint64_t Ip, unsigned Field, uint64_t Unique,
                           uint64_t Samples, uint64_t StrideMul,
                           int32_t Loop) {
        uint64_t Latency = Samples * (Weight + R.nextBelow(Weight));
        Agg.SampleCount += Samples;
        Agg.LatencySum += Latency;
        P.TotalSamples += Samples;
        P.TotalLatency += Latency;
        profile::StreamRecord &Rec = P.getOrCreateStream(Ip, Idx);
        Rec.LoopId = Loop;
        Rec.Line = static_cast<uint32_t>(100 + Ip % 1000);
        Rec.AccessSize = 8;
        Rec.SampleCount += Samples;
        Rec.LatencySum += Latency;
        Rec.UniqueAddrCount += Unique;
        Rec.StrideGcd = Size * StrideMul;
        Rec.ObjectStart = Start;
        uint64_t Element = Shard * 7 + R.nextBelow(64);
        Rec.RepAddr = Start + Size * Element + 8 * Field;
        Rec.LastAddr = Rec.RepAddr + Rec.StrideGcd;
        Rec.LevelSamples[R.nextBelow(4)] += Samples;
        Rec.TlbMissSamples += R.nextBelow(8) == 0;
      };
      unsigned Fields = static_cast<unsigned>(Size / 8);
      for (unsigned S = 0; S != DenseStreams; ++S) {
        // Shard 0 strides by exactly one element, so the merged GCD is
        // the declared size. One or two samples per shard: about 96
        // over 64 shards.
        uint64_t Mul = Shard == 0 ? 1 : 1 + R.nextBelow(3);
        uint64_t Unique = 1 + R.nextBelow(2);
        AddStream((static_cast<uint64_t>(Obj) << 24) | S,
                  Layout.nextBelow(Fields), Unique, Unique, Mul,
                  static_cast<int32_t>(Obj * 8 + S % 5));
      }
      if (!Shared)
        continue;
      // A rare path runs on one thread, so each sparse stream lives in
      // one shard and stays sparse after the merge.
      for (unsigned S = 0; S != SparseStreams; ++S) {
        unsigned Owner = static_cast<unsigned>(Layout.nextBelow(numShards()));
        uint64_t Unique = CensusSparseUnique[Layout.nextBelow(12)];
        unsigned Field = static_cast<unsigned>(Layout.nextBelow(Fields));
        uint64_t Mul = 1 + Layout.nextBelow(4);
        if (Owner == Shard)
          AddStream((static_cast<uint64_t>(Obj) << 24) | (1u << 20) | S,
                    Field, Unique, Unique, Mul,
                    static_cast<int32_t>(Obj * 8 + 5 + S % 3));
      }
    }
    std::vector<uint64_t> Path;
    for (unsigned N = 0; N != CctNodes; ++N) {
      Path.assign({0x400000 + N % 5, 0x410000 + N % 17, 0x420000 + N});
      P.Contexts.attribute(P.Contexts.intern(Path), 1 + R.nextBelow(300));
    }
    return P;
  }

  const Options &Opts;
  fs::path Dir;
  core::AnalysisConfig Analysis;
  std::vector<std::string> Files;
  std::map<std::string, uint64_t> Declared;
};

// --- Stream census -------------------------------------------------------

/// Stream counts of the analyzed objects of real profiles.
struct Census {
  uint64_t Objects = 0;    ///< Analyzed (top) objects.
  uint64_t Dense = 0;      ///< Streams at or above MinUniqueAddrs.
  uint64_t Sparse = 0;     ///< The analyzer's sparse streams (Eq. 4 calls).
  uint64_t Other = 0;      ///< Below MinUniqueAddrs, no non-unit stride.
  uint64_t SparseUnique[10] = {};
  uint64_t DenseSamples = 0, SparseSamples = 0;

  void add(const profile::Profile &P, const std::string &Key,
           unsigned MinUnique) {
    ++Objects;
    for (const profile::StreamRecord &S : P.Streams) {
      if (P.Objects[S.ObjectIndex].Key != Key)
        continue;
      if (S.UniqueAddrCount >= MinUnique) {
        ++Dense;
        DenseSamples += S.SampleCount;
      } else if (S.StrideGcd > S.AccessSize && S.SampleCount != 0) {
        ++Sparse;
        SparseSamples += S.SampleCount;
        ++SparseUnique[std::min<uint64_t>(S.UniqueAddrCount, 9)];
      } else {
        ++Other;
      }
    }
  }
  void merge(const Census &C) {
    Objects += C.Objects;
    Dense += C.Dense;
    Sparse += C.Sparse;
    Other += C.Other;
    for (unsigned U = 0; U != 10; ++U)
      SparseUnique[U] += C.SparseUnique[U];
    DenseSamples += C.DenseSamples;
    SparseSamples += C.SparseSamples;
  }
  std::string line(const std::string &Name) const {
    std::ostringstream OS;
    OS << Name << ": objects " << Objects << ", dense " << Dense
       << ", sparse " << Sparse << ", other " << Other << ", sparse unique";
    for (unsigned U = 1; U != 10; ++U)
      OS << " " << U << ":" << SparseUnique[U];
    OS << ", samples/dense "
       << (Dense ? static_cast<double>(DenseSamples) / Dense : 0.0)
       << ", samples/sparse "
       << (Sparse ? static_cast<double>(SparseSamples) / Sparse : 0.0);
    return OS.str();
  }
};

/// Prints the stream census of the seven paper programs' merged
/// profiles at scale 1.0: per analyzed object, how many streams are
/// dense and how many are sparse. shard-report's generator takes its
/// stream mix from these figures (perfbench/METRICS.md).
int runCensus(const Options &Opts) {
  core::ClosedLoopConfig Config;
  const workloads::DriverConfig &D = Config.Driver;
  runtime::RunConfig Run = D.Run;
  Run.Sampling.Seed = samplingSeed(Opts.Seed);
  Run.Engine = runtime::EngineKind::Serial;
  Run.Pipeline = runtime::PipelineKind::Inline;
  Run.AttachProfiler = true;
  Tracer Off;
  Census All;
  for (const auto &W : workloads::makePaperWorkloads()) {
    ir::StructLayout Hot = W->hotLayout();
    ProgramRun P = runProgram(*W, transform::FieldMap(Hot), Run,
                              Opts.Tiny ? 0.05 : 1.0, Off);
    if (!P.Error.empty()) {
      std::cerr << "perfbench: " << P.Error << "\n";
      return 1;
    }
    size_t Threads = P.Result.Profiles.size();
    profile::Profile Merged =
        profile::mergeProfiles(std::move(P.Result.Profiles), ProgramCpus);
    core::StructSlimAnalyzer Analyzer(*P.CodeMap, D.Analysis);
    Analyzer.registerLayout(W->hotObjectName(), Hot);
    core::AnalysisResult Result = Analyzer.analyze(Merged);
    Census C;
    for (const core::ObjectAnalysis &Obj : Result.Objects)
      C.add(Merged, Obj.Key, D.Analysis.MinUniqueAddrs);
    std::cout << C.line(W->name() + " (" + std::to_string(Threads) +
                        " thread(s), " + std::to_string(Merged.Objects.size()) +
                        " objects, " + std::to_string(Merged.Streams.size()) +
                        " streams)")
              << "\n";
    All.merge(C);
  }
  std::cout << All.line("all") << "\n";
  return 0;
}

// --- Command line and result -----------------------------------------------

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text[0] == '-' || Text[0] == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text.c_str(), &End, 10);
  if (errno != 0 || End != Text.c_str() + Text.size())
    return false;
  Out = V;
  return true;
}

bool parseArgs(int argc, char **argv, Options &Opts) {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&](const char *Flag) -> std::optional<std::string> {
      std::string Prefix = std::string(Flag) + "=";
      if (Arg.rfind(Prefix, 0) == 0)
        return Arg.substr(Prefix.size());
      return std::nullopt;
    };
    uint64_t N = 0;
    if (auto V = Value("--workload")) {
      Opts.Workload = *V;
    } else if (auto V = Value("--seed")) {
      if (!parseUnsigned(*V, Opts.Seed))
        return false;
    } else if (auto V = Value("--seconds")) {
      char *End = nullptr;
      Opts.Seconds = std::strtod(V->c_str(), &End);
      if (V->empty() || End != V->c_str() + V->size() || !(Opts.Seconds > 0))
        return false;
    } else if (auto V = Value("--trace")) {
      if (!parseUnsigned(*V, N) || N > 1)
        return false;
      Opts.Trace = N == 1;
    } else if (auto V = Value("--expect-digest")) {
      Opts.ExpectDigest = *V;
    } else if (auto V = Value("--work-dir")) {
      Opts.WorkDir = *V;
    } else if (auto V = Value("--golden")) {
      Opts.Golden = *V;
    } else if (auto V = Value("--trace-file")) {
      Opts.TraceFile = *V;
    } else if (Arg == "--tiny") {
      Opts.Tiny = true;
    } else if (Arg == "--census") {
      Opts.Census = true;
    } else {
      std::cerr << "perfbench: unknown argument '" << Arg << "'\n";
      return false;
    }
  }
  return Opts.Census || !Opts.Workload.empty();
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string hostJson() {
  std::string Fields = hostFeatureJsonFields();
  std::string Out = "{\"host\": {";
  for (char C : Fields)
    if (C != '\n')
      Out += C;
  // Drop the two-space indent the BENCH headers use.
  for (size_t At; (At = Out.find("  \"")) != std::string::npos;)
    Out.replace(At, 2, " ");
  std::ostringstream OS;
  OS << Out << " \"nproc\": " << hostThreads()
     << ", \"bench_cpus\": " << BenchCpus
     << ", \"program_cpus\": " << ProgramCpus
     << ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}}";
  return OS.str();
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  if (!parseArgs(argc, argv, Opts)) {
    std::cerr << "usage: perfbench --workload=<paper-closed-loop|"
                 "default-profile|shard-report> --seed=<n> --seconds=<s> "
                 "--trace=<0|1> [--work-dir=<dir>] [--golden=<file>] "
                 "[--trace-file=<file>] [--tiny] [--expect-digest=<d>]\n"
                 "       perfbench --census [--seed=<n>]\n";
    return 2;
  }
  if (Opts.Census) {
    confineCpus(ProgramCpus);
    return runCensus(Opts);
  }
  fs::path Dir = fs::path(Opts.WorkDir) /
                 (Opts.Workload + "-" + std::to_string(::getpid()));
  std::unique_ptr<BenchWorkload> Bench;
  if (Opts.Workload == "paper-closed-loop")
    Bench = std::make_unique<ClosedLoopBench>(Opts);
  else if (Opts.Workload == "default-profile")
    Bench = std::make_unique<DefaultProfileBench>(Opts, Dir);
  else if (Opts.Workload == "shard-report")
    Bench = std::make_unique<ShardReportBench>(Opts, Dir);
  else {
    std::cerr << "perfbench: unknown workload '" << Opts.Workload << "'\n";
    return 2;
  }
  confineCpus(Bench->cpus());
  std::cout << hostJson() << std::endl;

  // Set-up takes milliseconds, so it repeats and setup_s is the median:
  // five times first, then between passes whenever set-up has had less
  // than a thirtieth of the run. Like the passes, the set-ups then
  // sample the host over the whole run, not only its first second.
  unsigned Attempted = 0, Failed = 0;
  std::vector<double> SetupSeconds;
  double SetupTotal = 0;
  auto TimedSetup = [&] {
    auto Begin = Clock::now();
    unsigned SetupFailures = Bench->setup();
    SetupSeconds.push_back(secondsSince(Begin));
    SetupTotal += SetupSeconds.back();
    Attempted += SetupFailures;
    Failed += SetupFailures;
  };
  for (unsigned I = 0; I != 5; ++I)
    TimedSetup();

  Tracer T;
  std::string Expected = Opts.ExpectDigest;
  std::vector<double> Walls, TracedWalls;
  std::vector<std::vector<double>> UnitSeconds; // [unit][untraced pass]
  double ProfiledTotal = 0, DetachedTotal = 0, SimSecondsTotal = 0;
  uint64_t SimAccessesTotal = 0;
  std::vector<unsigned> TracedPasses;
  PassResult Last, LastTraced;
  const unsigned MinPasses = Opts.Trace ? 4 : 3;
  auto RunBegin = Clock::now();
  for (unsigned PassNo = 0;; ++PassNo) {
    bool Traced = Opts.Trace && PassNo % 2 == 1;
    T.setEnabled(Traced);
    T.setPass(PassNo);
    auto Begin = Clock::now();
    PassResult R;
    {
      Tracer::Scope Root(T, "bench", "pass");
      R = Bench->pass(T);
    }
    double Wall = secondsSince(Begin);
    T.setEnabled(false);

    std::string Digest = support::crc32Hex(support::crc32(R.Output)) + "-" +
                         std::to_string(R.Output.size());
    if (Expected.empty())
      Expected = Digest;
    Attempted += R.Attempted;
    if (Digest != Expected) {
      Failed += R.Attempted;
      reportFailure("pass " + std::to_string(PassNo) + " digest " + Digest +
                    " != " + Expected);
    } else {
      Failed += R.Failed;
    }

    if (Traced) {
      TracedWalls.push_back(Wall);
      TracedPasses.push_back(PassNo);
      LastTraced = R;
    } else {
      Walls.push_back(Wall);
      UnitSeconds.resize(std::max(UnitSeconds.size(), R.UnitSeconds.size()));
      for (size_t U = 0; U != R.UnitSeconds.size(); ++U)
        UnitSeconds[U].push_back(R.UnitSeconds[U]);
      ProfiledTotal += R.ProfiledSeconds;
      DetachedTotal += R.DetachedSeconds;
      if (R.SimSeconds > 0) {
        SimAccessesTotal += R.SimAccesses;
        SimSecondsTotal += R.SimSeconds;
      }
      Last = R;
    }
    while (SetupTotal < secondsSince(RunBegin) / 30)
      TimedSetup();
    if (PassNo + 1 >= MinPasses && secondsSince(RunBegin) >= Opts.Seconds)
      break;
  }
  Bench->finalChecks(Attempted, Failed);
  fs::remove_all(Dir);

  // A pass's time is the sum of its programs' median times: each program
  // gives a sample per pass, so one slow moment of the host moves one
  // program's sample, not the whole pass.
  double WallS = 0;
  for (const std::vector<double> &Unit : UnitSeconds)
    WallS += median(Unit);
  // profile_slowdown and default-profile's sim_maccess_per_s divide the
  // run's totals. Under the Auto engine a program's run time is bimodal
  // (it depends on where the scheduler puts the lane threads), so a
  // median jumps between the modes while a total over every run does
  // not; each pass runs both sides of every program, so a slow moment of
  // the host reaches both.
  double Slowdown = DetachedTotal > 0 ? ProfiledTotal / DetachedTotal : 1;
  double SimRate = 1; // Does not apply.
  if (SimSecondsTotal > 0)
    SimRate = static_cast<double>(SimAccessesTotal) / 1e6 / SimSecondsTotal;
  else if (Last.SimAccesses)
    SimRate = static_cast<double>(Last.SimAccesses) / 1e6 / WallS;

  std::vector<Metric> Metrics;
  if (!Opts.Trace) {
    Metrics = {
        {"wall_s", WallS, "s"},
        {"setup_s", median(SetupSeconds), "s"},
        {"sim_maccess_per_s", SimRate, "Maccess/s"},
        {"profile_slowdown", Slowdown, "x"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_speedup_geomean", Last.SpeedupGeomean, "x"},
        {"size_exact", static_cast<double>(Last.SizeExact), "count"},
    };
  } else {
    auto Med = [&](auto PerPass) {
      std::vector<double> V;
      for (unsigned P : TracedPasses)
        V.push_back(PerPass(P));
      return median(V);
    };
    auto SpanSum = [&](std::initializer_list<const char *> Names) {
      return Med([&](unsigned P) {
        double Sum = 0;
        for (const char *N : Names)
          Sum += T.totalSeconds(P, N);
        return Sum;
      });
    };
    const LayerCounts &C = LastTraced.Counts;
    double SimS = SpanSum({"runPhase", "finish"});
    Metrics = {
        {"runtime.sim_s", SimS, "s"},
        {"runtime.ns_per_access",
         C.MemAccesses ? SimS * 1e9 / static_cast<double>(C.MemAccesses) : 0,
         "ns"},
    };
    for (unsigned L = 0; L != 3; ++L) {
      std::string Level = "cache.l" + std::to_string(L + 1);
      Metrics.push_back(
          {Level + "_hit_ratio",
           C.Accesses[L] ? 1.0 - static_cast<double>(C.Misses[L]) /
                                     static_cast<double>(C.Accesses[L])
                         : 0.0,
           "ratio"});
      Metrics.push_back({Level + "_accesses",
                         static_cast<double>(C.Accesses[L]), "count"});
      Metrics.push_back(
          {Level + "_misses", static_cast<double>(C.Misses[L]), "count"});
    }
    auto Count = [](uint64_t V) { return static_cast<double>(V); };
    std::vector<Metric> Rest = {
        {"runtime.instructions", Count(C.Instructions), "count"},
        {"runtime.mem_accesses", Count(C.MemAccesses), "count"},
        {"runtime.parallel_phases", Count(C.ParallelPhases), "count"},
        {"runtime.serial_phases", Count(C.SerialPhases), "count"},
        {"runtime.producer_stalls", Count(C.ProducerStalls), "count"},
        {"runtime.queue_depth_max", Count(C.QueueDepthMax), "records"},
        {"pmu.samples", Count(C.Samples), "count"},
        {"pmu.samples_per_maccess",
         C.ProfiledAccesses ? Count(C.Samples) * 1e6 / Count(C.ProfiledAccesses)
                            : 0,
         "1/Maccess"},
        {"profile.dump_s", SpanSum({"dumpProfiles"}), "s"},
        {"profile.shard_bytes", Count(C.ShardBytes), "bytes"},
        {"profile.merge_s", SpanSum({"mergeProfiles", "loadAndMergeProfiles"}),
         "s"},
        {"profile.shards", Count(C.Shards), "count"},
        {"profile.shards_skipped", Count(C.ShardsSkipped), "count"},
        {"profile.peak_resident_profiles", Count(C.PeakResident), "count"},
        {"core.analyze_s", SpanSum({"analyze"}), "s"},
        {"core.render_s", SpanSum({"render", "renderVerifyJson"}), "s"},
        {"core.plan_s", SpanSum({"makeSplitPlan"}), "s"},
        {"core.streams", Count(C.Streams), "count"},
        {"core.sparse_streams", Count(C.SparseStreams), "count"},
        {"core.low_confidence_sizes", Count(C.LowConfidenceSizes), "count"},
        {"transform.split_s", SpanSum({"splitArrayOfStructs", "FieldMap"}),
         "s"},
        {"transform.ir_split", Count(C.IrSplit), "count"},
        {"transform.fieldmap_rebuild", Count(C.FieldMapRebuild), "count"},
        {"workloads.build_s", SpanSum({"Workload::build"}), "s"},
        {"analysis.codemap_s", SpanSum({"CodeMap"}), "s"},
    };
    Metrics.insert(Metrics.end(), Rest.begin(), Rest.end());
    for (const char *Layer : {"bench", "workloads", "ir", "analysis",
                              "runtime", "profile", "core", "transform"}) {
      double Self = Med([&](unsigned P) {
        auto Selves = T.selfSeconds(P);
        return Selves.count(Layer) ? Selves.at(Layer) : 0.0;
      });
      Metrics.push_back({std::string(Layer) + ".self_s", Self, "s"});
    }
    // Whole traced passes against whole untraced ones.
    Metrics.push_back(
        {"trace.overhead", median(TracedWalls) / median(Walls), "x"});
    if (!Opts.TraceFile.empty() && !T.writeChromeTrace(Opts.TraceFile))
      std::cerr << "perfbench: cannot write " << Opts.TraceFile << "\n";
  }

  auto List = [](const std::vector<double> &V) {
    std::string Out = "[";
    for (size_t I = 0; I != V.size(); ++I)
      Out += (I ? ", " : "") + std::to_string(V[I]);
    return Out + "]";
  };
  std::cout << "{\"digest\": \"" << Expected
            << "\", \"setups\": " << SetupSeconds.size()
            << ", \"pass_s\": " << List(Walls)
            << ", \"traced_pass_s\": " << List(TracedWalls) << "}\n";
  std::ostringstream OS;
  OS.precision(17);
  OS << "{\"correct\": " << (Failed == 0 ? "true" : "false")
     << ", \"attempted\": " << Attempted
     << ", \"failed\": " << Failed << ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Metrics[I].Name << "\": {\"value\": "
       << Metrics[I].Value << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  OS << "}}";
  std::cout << OS.str() << std::endl;
  return 0;
}
