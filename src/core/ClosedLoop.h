//===- core/ClosedLoop.h - Advice -> split -> re-simulate loop -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closes the paper's loop mechanically: profile a workload under the
/// cache model, analyze, turn the hottest object's SplitPlan into an
/// actual program rewrite, and re-run the rewritten program under the
/// identical configuration to measure what the advice bought.
///
/// Two application paths, tried in order:
///  1. IR split: transform::splitArrayOfStructs rewrites the built
///     program directly through its allocation token — the compiler
///     pass the paper's conclusion envisions. Works when the hot
///     array's base pointer never escapes the allocating function
///     (the serial workloads: ART, libquantum, TSP, MSER).
///  2. FieldMap rebuild: when the splitter rejects (the parallel
///     workloads publish base pointers to worker threads through a
///     mailbox, which is exactly the escape the splitter must refuse
///     to rewrite), the workload is re-built from source under the
///     split FieldMap — the paper's manual source transformation. The
///     splitter's diagnostic is preserved as the fallback reason.
///
/// Simulation counters are schedule- and host-independent, so
/// before/after deltas — and the JSON rendering — are byte-stable
/// across hosts and --jobs values.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CORE_CLOSEDLOOP_H
#define STRUCTSLIM_CORE_CLOSEDLOOP_H

#include "core/Advice.h"
#include "core/BenefitModel.h"
#include "workloads/Driver.h"

#include <array>
#include <string>
#include <vector>

namespace structslim {
namespace core {

/// How the advised plan was applied to the program.
enum class ApplyMode : uint8_t {
  None,            ///< Plan keeps the structure whole; nothing applied.
  IrSplit,         ///< splitArrayOfStructs rewrote the IR in place.
  FieldMapRebuild, ///< Splitter rejected; rebuilt under the split map.
};

/// Stable identifier used in text and JSON output.
const char *applyModeName(ApplyMode Mode);

/// Closed-loop knobs.
struct ClosedLoopConfig {
  workloads::DriverConfig Driver;
  /// Memory share handed to the BenefitModel's Amdahl damping.
  double MemoryShare = 1.0;
};

/// The schedule-independent counters of one simulated run (the subset
/// of RunResult that is bit-stable across hosts).
struct SimCounters {
  uint64_t ElapsedCycles = 0;
  uint64_t Instructions = 0;
  uint64_t MemoryAccesses = 0;
  std::array<uint64_t, 3> Accesses{}; ///< L1/L2/L3 demand accesses.
  std::array<uint64_t, 3> Misses{};   ///< L1/L2/L3 demand misses.

  /// Demand miss rate of \p Level (0 when the level saw no accesses).
  double missRate(unsigned Level) const;
};

/// Everything the loop learned about one workload.
struct WorkloadVerdict {
  std::string Name;
  std::string Suite;
  ApplyMode Mode = ApplyMode::None;
  /// Why the IR split did not run (splitter diagnostic, or why the
  /// plan was not applicable). Empty for Mode == IrSplit.
  std::string FallbackReason;
  SplitPlan Plan;

  // Sampled-vs-exact agreement: what the analyzer inferred from PMU
  // samples against the ground truth the workload declares.
  uint64_t InferredStructSize = 0;
  uint64_t ActualStructSize = 0;
  double SizeConfidence = 0;
  double HotShare = 0;
  uint64_t Samples = 0;
  /// Streams of the hot object the bounded sampling reservoir starved
  /// below the analyzer's unique-address bar. A nonzero count means the
  /// inferred size (and hence the plan) rests on truncated evidence —
  /// the text and JSON renderings surface it so a bounded run never
  /// silently changes a recommendation.
  uint64_t TruncatedStreams = 0;
  bool ReservoirTruncated = false;

  // Before/after under the identical RunConfig and cache hierarchy.
  SimCounters Before;
  SimCounters After;
  /// Thread return values identical before/after (semantic check).
  bool ResultsMatch = true;

  // Derived deltas.
  double MeasuredSpeedup = 1.0;  ///< Before/After elapsed cycles.
  double PredictedSpeedup = 1.0; ///< BenefitModel projection.
  /// Per level: fraction of the demand miss *rate* removed (negative
  /// when the split made it worse).
  std::array<double, 3> MissRateReduction{};

  bool sizeExact() const {
    return InferredStructSize == ActualStructSize && InferredStructSize != 0;
  }
  bool improved() const { return After.ElapsedCycles < Before.ElapsedCycles; }
  bool regressed() const { return After.ElapsedCycles > Before.ElapsedCycles; }
  bool ok() const { return ResultsMatch && !regressed(); }
};

/// Aggregate over a set of workloads.
struct VerifyReport {
  std::vector<WorkloadVerdict> Workloads;

  unsigned countMode(ApplyMode Mode) const;
  unsigned countImproved() const;
  unsigned countRegressed() const;
  unsigned countMismatched() const;
  /// Every workload kept its results and none regressed latency.
  bool allOk() const;
};

/// Runs the full loop on one workload.
WorkloadVerdict verifyWorkload(const workloads::Workload &W,
                               const ClosedLoopConfig &Config);

/// Runs the loop over \p Workloads in order.
VerifyReport
verifyWorkloads(const std::vector<std::unique_ptr<workloads::Workload>> &Ws,
                const ClosedLoopConfig &Config);

/// Human-readable table (one row per workload) plus a summary line.
std::string renderVerifyText(const VerifyReport &Report);

/// Machine-readable document: {"schema_version", "generator",
/// "config", "workloads": [...], "summary"}. Deterministic key order
/// and formatting; byte-identical across hosts and job counts (no
/// wall-clock fields). Schema-additive alongside the analyzer report's
/// JSON: shared spellings ("hot_share", "size_confidence", ...) keep
/// their meaning.
std::string renderVerifyJson(const VerifyReport &Report,
                             const ClosedLoopConfig &Config);

} // namespace core
} // namespace structslim

#endif // STRUCTSLIM_CORE_CLOSEDLOOP_H
