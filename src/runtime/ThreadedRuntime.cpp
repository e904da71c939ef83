//===- runtime/ThreadedRuntime.cpp ----------------------------*- C++ -*-===//

#include "runtime/ThreadedRuntime.h"

#include "profile/ProfileIO.h"
#include "runtime/ProfileBuilder.h"
#include "runtime/SampleReservoir.h"
#include "support/Error.h"

#include <algorithm>
#include <chrono>

using namespace structslim;
using namespace structslim::runtime;

namespace {

/// Everything one logical thread owns for the duration of a phase.
struct PhaseThread {
  std::unique_ptr<cache::MemoryHierarchy> Hierarchy;
  std::unique_ptr<pmu::PmuModel> Pmu;
  std::unique_ptr<ProfileBuilder> Builder;
  std::unique_ptr<SampleReservoir> Reservoir; ///< Bounded-memory mode only.
  std::unique_ptr<Interpreter> Interp;
  bool Alive = true;
};

/// Deterministic round-robin on the calling thread.
void runSerialLoop(const RunConfig &Config, std::vector<PhaseThread> &States) {
  if (States.size() == 1) {
    // One logical thread: there is no interleave to reproduce, so the
    // quantum is only loop-entry overhead — step in large slices. The
    // counters and every simulation outcome are granularity-invariant;
    // the runaway guard just trips up to one slice later.
    PhaseThread &S = States[0];
    uint64_t Slice = std::max<uint64_t>(Config.Quantum, 1ull << 20);
    while (S.Interp->step(Slice)) {
      if (S.Interp->getStats().Instructions > Config.InstructionBudget)
        fatalError("thread exceeded its instruction budget");
    }
    if (S.Interp->getStats().Instructions > Config.InstructionBudget)
      fatalError("thread exceeded its instruction budget");
    S.Alive = false;
    return;
  }
  size_t AliveCount = States.size();
  while (AliveCount != 0) {
    for (PhaseThread &S : States) {
      if (!S.Alive)
        continue;
      if (!S.Interp->step(Config.Quantum)) {
        S.Alive = false;
        --AliveCount;
      }
      if (S.Interp->getStats().Instructions > Config.InstructionBudget)
        fatalError("thread exceeded its instruction budget");
    }
  }
}

} // namespace

ThreadedRuntime::ThreadedRuntime(RunConfig Config)
    : Config(std::move(Config)) {
  SharedL3 = std::make_unique<cache::SetAssocCache>(this->Config.Hierarchy.L3);
}

ThreadedRuntime::~ThreadedRuntime() = default;

void ThreadedRuntime::runPhase(const ir::Program &P,
                               const analysis::CodeMap *CodeMap,
                               const std::vector<ThreadSpec> &Threads,
                               TraceSink *Tracer) {
  if (Threads.empty())
    return;
  if (Config.AttachProfiler && !CodeMap)
    fatalError("profiler attached but no code map supplied");

  // Predecode once per program; every thread of every phase shares the
  // immutable image. Re-predecode if the caller grew the program
  // between phases (same Program object, more instructions).
  const PredecodedProgram *PP = nullptr;
  if (!Config.ReferenceInterpreter) {
    if (PredecodedFor != &P || PredecodedInstrs != P.countInstructions()) {
      Predecoded = std::make_shared<const PredecodedProgram>(P);
      PredecodedFor = &P;
      PredecodedInstrs = P.countInstructions();
    }
    PP = Predecoded.get();
  }

  std::vector<PhaseThread> States;
  States.reserve(Threads.size());
  for (const ThreadSpec &Spec : Threads) {
    PhaseThread S;
    uint32_t Tid = NextThreadId++;
    S.Hierarchy = std::make_unique<cache::MemoryHierarchy>(Config.Hierarchy,
                                                           SharedL3.get());
    S.Pmu = std::make_unique<pmu::PmuModel>(Config.Sampling, Tid);
    if (Config.AttachProfiler) {
      S.Builder = std::make_unique<ProfileBuilder>(*CodeMap, M.Objects, Tid,
                                                   Config.Sampling.Period);
      if (Config.Sampling.ReservoirCapacity != 0) {
        // Bounded-memory mode: the PMU feeds a fixed-capacity weighted
        // reservoir that releases survivors to the builder at phase end.
        S.Reservoir = std::make_unique<SampleReservoir>(
            *S.Builder, Config.Sampling.ReservoirCapacity,
            Config.Sampling.Seed + Tid);
        S.Builder->setReservoirActive(true);
        S.Pmu->setSink(S.Reservoir.get());
      } else {
        S.Pmu->setSink(S.Builder.get());
      }
    }
    // A detached profiler arms no sink; skip the PMU on the per-access
    // path entirely (the "measure native speed" configuration).
    S.Interp = std::make_unique<Interpreter>(
        P, M, *S.Hierarchy, Config.AttachProfiler ? S.Pmu.get() : nullptr,
        Tid, PP);
    if (S.Builder)
      S.Builder->setCallPathProvider(S.Interp.get());
    if (S.Reservoir)
      S.Reservoir->setCallPathProvider(S.Interp.get());
    if (Config.ReferenceInterpreter)
      S.Interp->setExecCore(ExecCore::Reference);
    if (Tracer)
      S.Interp->setTracer(Tracer);
    S.Interp->start(Spec.FunctionId, Spec.Args);
    States.push_back(std::move(S));
  }

  ++Accum.SerialPhases;
  auto Begin = std::chrono::steady_clock::now();
  runSerialLoop(Config, States);
  auto End = std::chrono::steady_clock::now();
  Accum.WallSeconds +=
      std::chrono::duration<double>(End - Begin).count();

  // Fold this phase's results into the accumulated run result.
  uint64_t PhaseMaxCycles = 0;
  for (PhaseThread &S : States) {
    RunStats Stats = S.Interp->getStats();
    // Charge the simulated sampling-interrupt cost to the thread that
    // took the samples.
    uint64_t Samples = S.Pmu->getSamplesDelivered();
    Stats.Cycles += Samples * Config.SampleHandlerCycles;

    Accum.TotalCycles += Stats.Cycles;
    Accum.Instructions += Stats.Instructions;
    Accum.MemoryAccesses += Stats.MemoryAccesses;
    Accum.Samples += Samples;
    PhaseMaxCycles = std::max(PhaseMaxCycles, Stats.Cycles);
    Accum.ReturnValues.push_back(S.Interp->getResult());

    Accum.Accesses[0] += S.Hierarchy->l1().getAccesses();
    Accum.Misses[0] += S.Hierarchy->l1().getMisses();
    Accum.Accesses[1] += S.Hierarchy->l2().getAccesses();
    Accum.Misses[1] += S.Hierarchy->l2().getMisses();

    if (S.Builder) {
      if (S.Reservoir)
        // Release the surviving samples (arrival order) into the
        // builder before finalizing its profile.
        S.Reservoir->flush();
      profile::Profile Prof = S.Builder->take();
      Prof.Instructions = Stats.Instructions;
      Prof.MemoryAccesses = Stats.MemoryAccesses;
      Prof.Cycles = Stats.Cycles;
      if (S.Reservoir) {
        S.Reservoir->stampProfile(Prof);
        Accum.ReservoirSeen += Prof.ReservoirSeen;
        Accum.ReservoirEvictions += Prof.ReservoirEvictions;
        Accum.ReservoirPeakBytes += Prof.ReservoirPeakBytes;
      }
      Prof.SampleBudget = Config.Sampling.SampleBudgetPerMAccess;
      Prof.EffectivePeriods = S.Pmu->getPeriodTrajectory();
      Accum.Profiles.push_back(std::move(Prof));
    }
  }
  Accum.ElapsedCycles += PhaseMaxCycles;
}

std::vector<std::string>
structslim::runtime::dumpProfiles(const std::vector<profile::Profile> &Profiles,
                                  const std::string &Dir,
                                  const std::string &Prefix,
                                  std::vector<std::string> *Failures,
                                  const RunResult *) {
  std::vector<std::string> Written;
  Written.reserve(Profiles.size());
  for (const profile::Profile &P : Profiles) {
    std::string Path = Dir + "/" + Prefix + "thread" +
                       std::to_string(P.ThreadId) + ".structslim";
    std::string Error;
    if (profile::writeProfileFile(P, Path, &Error))
      Written.push_back(std::move(Path));
    else if (Failures)
      Failures->push_back(Path + ": " + Error);
  }
  return Written;
}

RunResult ThreadedRuntime::finish() {
  Accum.Accesses[2] = SharedL3->getAccesses();
  Accum.Misses[2] = SharedL3->getMisses();
  return std::move(Accum);
}
