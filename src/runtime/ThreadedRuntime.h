//===- runtime/ThreadedRuntime.h - Deterministic thread runner -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs IR programs with one or more logical threads over a shared
/// Machine. Threads execute in a deterministic round-robin interleave;
/// each gets private L1/L2 caches and a private PMU + profile builder
/// (no synchronization between threads, the paper's scalability
/// design), while all share the L3 — the paper's "four threads in one
/// socket" configuration.
///
/// Execution proceeds in phases: a phase is a set of threads run to
/// completion (e.g. a serial setup phase followed by an OpenMP-style
/// parallel region). Elapsed simulated time adds, per phase, the
/// maximum thread time — concurrent threads overlap.
///
/// The runtime also accounts the simulated profiling overhead: each
/// delivered sample costs SampleHandlerCycles of the sampled thread's
/// time (the PMU interrupt + online attribution work), which is what
/// the paper's measurement-overhead numbers capture.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_RUNTIME_THREADEDRUNTIME_H
#define STRUCTSLIM_RUNTIME_THREADEDRUNTIME_H

#include "analysis/CodeMap.h"
#include "cache/Hierarchy.h"
#include "pmu/AddressSampling.h"
#include "profile/Profile.h"
#include "runtime/Interpreter.h"
#include "runtime/Machine.h"

#include <memory>
#include <vector>

namespace structslim {
namespace runtime {

/// One logical thread to run in a phase.
struct ThreadSpec {
  uint32_t FunctionId = 0;
  std::vector<uint64_t> Args;
};

/// Kept only so the end-to-end benchmark (perfbench/) keeps compiling:
/// the round-robin interleave is the one phase engine, and assigning
/// RunConfig::Engine has no effect. Drop with the next benchmark change.
enum class EngineKind : uint8_t { Serial };

/// Kept only so the end-to-end benchmark keeps compiling: the cache and
/// PMU simulation always runs inline on the executing thread, and
/// assigning RunConfig::Pipeline has no effect. Drop with the next
/// benchmark change.
enum class PipelineKind : uint8_t { Inline };

/// Runtime configuration.
struct RunConfig {
  cache::HierarchyConfig Hierarchy;
  pmu::SamplingConfig Sampling;
  /// Attach the StructSlim profiler (PMU sampling + online handler)?
  bool AttachProfiler = true;
  /// No effect; kept only for the benchmark (see EngineKind).
  EngineKind Engine = EngineKind::Serial;
  /// Instructions per round-robin slice in multithreaded phases.
  uint64_t Quantum = 64;
  /// Per-thread runaway guard.
  uint64_t InstructionBudget = 1ull << 33;
  /// Simulated cycles charged per delivered sample (PMU interrupt +
  /// online attribution). ~3 us at 2.6 GHz.
  unsigned SampleHandlerCycles = 8000;
  /// Force the reference interpreter core (direct ir::Instr walk)
  /// instead of the predecoded engine. Results are bit-identical; the
  /// differential tests and benchmarks flip this to compare the two.
  bool ReferenceInterpreter = false;
  /// No effect; kept only for the benchmark (see PipelineKind).
  PipelineKind Pipeline = PipelineKind::Inline;
};

/// Aggregated outcome of a full run.
struct RunResult {
  std::vector<profile::Profile> Profiles; ///< One per thread (attached).
  std::vector<uint64_t> ReturnValues;     ///< Per thread, phase order.
  uint64_t ElapsedCycles = 0; ///< Sum over phases of max thread cycles.
  uint64_t TotalCycles = 0;   ///< Sum over all threads.
  uint64_t Instructions = 0;
  uint64_t MemoryAccesses = 0;
  uint64_t Samples = 0;
  double WallSeconds = 0;     ///< Host time spent interpreting.
  // Aggregated cache event counters (EBS role; Table 4 inputs).
  uint64_t Accesses[3] = {0, 0, 0}; ///< L1, L2, L3 demand accesses.
  uint64_t Misses[3] = {0, 0, 0};   ///< L1, L2, L3 demand misses.
  // Kept only for the end-to-end benchmark's per-layer counters; drop
  // with the next benchmark change. SerialPhases counts the phases run;
  // the other three are always 0.
  uint64_t SerialPhases = 0;
  uint64_t ParallelPhases = 0;
  uint64_t ProducerStalls = 0;
  uint64_t QueueDepthMax = 0;
  // Bounded-memory sampling counters (zero when no reservoir was
  // configured). Deterministic — reservoir behavior depends only on the
  // per-thread sample stream and seed, never on host timing.
  uint64_t ReservoirSeen = 0;      ///< Samples offered to reservoirs.
  uint64_t ReservoirEvictions = 0; ///< Samples dropped by reservoirs.
  /// Sum over threads of each reservoir's peak resident bytes — the
  /// provable bound on sample memory (surfaced in --stats).
  uint64_t ReservoirPeakBytes = 0;
};

/// Writes each profile in \p Profiles to its own shard file
/// "<Dir>/<Prefix>thread<id>.structslim" — the online profiler's
/// unsynchronized one-file-per-thread dump (paper Sec. 5.1). Goes
/// through profile::writeProfileFile, so fault injection
/// (support::FaultSite::ProfileOpenWrite / ProfileWrite) can fail an
/// open or tear a write exactly as a crashing production run would.
/// Returns the paths written, in profile order; shards that failed are
/// reported as "<path>: <reason>" in \p Failures when non-null and are
/// absent from the returned list. The trailing RunResult pointer is
/// ignored; it is kept only for the end-to-end benchmark's call site.
std::vector<std::string>
dumpProfiles(const std::vector<profile::Profile> &Profiles,
             const std::string &Dir, const std::string &Prefix = "",
             std::vector<std::string> *Failures = nullptr,
             const RunResult * = nullptr);

/// Owns the Machine and runs phases of threads over it.
class ThreadedRuntime {
public:
  explicit ThreadedRuntime(RunConfig Config);
  ~ThreadedRuntime();

  Machine &machine() { return M; }
  const RunConfig &getConfig() const { return Config; }

  /// Runs \p Threads of \p P to completion, interleaved. \p CodeMap is
  /// required when the profiler is attached. \p Tracer (optional) sees
  /// every access of every thread — the instrumentation port used by
  /// the baseline profilers.
  void runPhase(const ir::Program &P, const analysis::CodeMap *CodeMap,
                const std::vector<ThreadSpec> &Threads,
                TraceSink *Tracer = nullptr);

  /// Collects profiles and counters accumulated over all phases.
  RunResult finish();

private:
  RunConfig Config;
  Machine M;
  std::unique_ptr<cache::SetAssocCache> SharedL3;
  RunResult Accum;
  uint32_t NextThreadId = 0;
  // One predecoded image per program, shared (immutably) by all threads
  // of a phase and across phases running the same program.
  std::shared_ptr<const PredecodedProgram> Predecoded;
  const ir::Program *PredecodedFor = nullptr;
  size_t PredecodedInstrs = 0;
};

} // namespace runtime
} // namespace structslim

#endif // STRUCTSLIM_RUNTIME_THREADEDRUNTIME_H
