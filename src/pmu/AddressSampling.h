//===- pmu/AddressSampling.h - PEBS-LL/IBS address sampling ----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Models the performance-monitoring-unit address sampling StructSlim
/// is built on (paper Sec. 2, Table 1). The PMU periodically selects a
/// memory access and records the three pieces of information the paper
/// enumerates: (1) the instruction pointer, (2) the effective address,
/// and (3) the memory events it caused — here, the serving cache level
/// and the access latency (the PEBS-LL / IBS capability; plain PEBS and
/// MRK lack latency, which is why StructSlim requires PEBS-LL or IBS).
///
/// Two flavors are modeled:
///  - PebsLoadLatency: samples loads only, like Intel PEBS-LL;
///  - IbsOp:           samples loads and stores, like AMD IBS.
///
/// Real PEBS randomizes the distance between samples; the model applies
/// the same jitter so periodic access patterns cannot alias with the
/// sampling period.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PMU_ADDRESSSAMPLING_H
#define STRUCTSLIM_PMU_ADDRESSSAMPLING_H

#include "cache/Hierarchy.h"
#include "support/Random.h"

#include <cstdint>
#include <vector>

namespace structslim {
namespace pmu {

/// One address sample as delivered by the PMU interrupt handler.
struct AddressSample {
  uint32_t ThreadId = 0;
  uint64_t Ip = 0;
  uint64_t EffAddr = 0;
  uint32_t Latency = 0;
  uint8_t AccessSize = 0; ///< Bytes touched by the sampled instruction.
  cache::MemLevel Served = cache::MemLevel::L1;
  bool IsWrite = false;
  bool TlbMiss = false; ///< Reported by PEBS/IBS alongside cache events.
};

/// Which sampling hardware to model.
enum class PmuFlavor : uint8_t {
  PebsLoadLatency, ///< Intel PEBS with load latency: loads only.
  IbsOp,           ///< AMD instruction-based sampling: loads + stores.
};

/// Sampling parameters. The paper samples one in 10,000 accesses.
///
/// Period must be >= 1 (PmuModel construction aborts on 0: a zero
/// period has no sensible meaning — "never sample" is setSink(nullptr)
/// and "sample every access" is Period 1). Periods 1-3 sample exactly
/// every Period-th eligible access with no jitter; from 4 up the
/// PEBS-style +/- 25% randomization applies (RandomizePeriod permitting).
struct SamplingConfig {
  uint64_t Period = 10000;
  PmuFlavor Flavor = PmuFlavor::PebsLoadLatency;
  bool RandomizePeriod = true;
  uint64_t Seed = 0x5eed;

  // --- Bounded-memory adaptive sampling (ROADMAP item 3) -------------
  /// Per-thread weighted-reservoir capacity in samples. 0 keeps the
  /// original unbounded buffering (every delivered sample reaches the
  /// profile builder); nonzero caps resident samples per thread and
  /// keeps a latency-weighted A-ES reservoir instead.
  uint64_t ReservoirCapacity = 0;
  /// Overhead-governor budget: target delivered samples per million
  /// eligible accesses. 0 disables the governor (the nominal Period
  /// stays in force for the whole run). When enabled, the effective
  /// period is re-fit at every epoch boundary to hit this rate, clamped
  /// to [GovernorMinPeriod, GovernorMaxPeriod]; the +/- 25% jitter is
  /// applied around the *effective* period.
  uint64_t SampleBudgetPerMAccess = 0;
  /// Eligible accesses per governor epoch (adaptation granularity).
  uint64_t EpochAccesses = 1ull << 20;
  /// Clamp bounds for the governed effective period.
  uint64_t GovernorMinPeriod = 16;
  uint64_t GovernorMaxPeriod = 1ull << 26;
};

/// Receives samples from the PMU "interrupt handler".
class SampleSink {
public:
  virtual ~SampleSink();
  virtual void onSample(const AddressSample &Sample) = 0;

  /// Sample delivery with an explicitly captured call path (call-site
  /// IPs, outermost first, excluding the sampled instruction). Used by
  /// the sample reservoir, which releases samples at phase end when the
  /// interrupted thread's live stack has already moved on. Default:
  /// ignore the path and deliver through onSample().
  virtual void onSampleAt(const AddressSample &Sample, const uint64_t *Path,
                          size_t PathLen) {
    (void)Path;
    (void)PathLen;
    onSample(Sample);
  }
};

/// The per-core PMU. The runtime calls onAccess() for every memory
/// access a core performs; the PMU delivers every N-th one (with
/// jitter) to the sink.
class PmuModel {
public:
  PmuModel(const SamplingConfig &Config, uint32_t ThreadId);

  /// Arms the PMU with \p Sink; a null sink disables sampling (the
  /// "profiler detached" configuration used to measure overhead).
  void setSink(SampleSink *Sink) { this->Sink = Sink; }

  /// Observes one memory access; delivers a sample when the period
  /// counter expires. Hot path: one decrement + branch when not
  /// sampling (the flavor's store-monitoring decision is precomputed
  /// at construction, not re-derived per access).
  void onAccess(uint64_t Ip, uint64_t EffAddr, uint8_t AccessSize,
                bool IsWrite, const cache::AccessResult &Result) {
    if (!tick(IsWrite))
      return;
    deliver(Ip, EffAddr, AccessSize, IsWrite, Result);
  }

  uint64_t getSamplesDelivered() const { return SamplesDelivered; }
  const SamplingConfig &getConfig() const { return Config; }
  uint32_t getThreadId() const { return ThreadId; }

  /// Current governed period (== Config.Period until the first governor
  /// epoch boundary, or always when the governor is off).
  uint64_t getEffectivePeriod() const { return EffectivePeriod; }
  /// Effective period after each completed governor epoch, in order.
  /// Empty when the governor is off or no epoch has completed.
  const std::vector<uint64_t> &getPeriodTrajectory() const {
    return PeriodTrajectory;
  }

private:
  /// Advances the period counter for one access and reports whether it
  /// selects this access for sampling (consuming one jitter draw when
  /// it does). The selection never depends on the access outcome.
  bool tick(bool IsWrite) {
    if (!Sink || (SkipStores && IsWrite))
      return false;
    if (GovernorOn && --EpochLeft == 0)
      governorEpoch();
    if (--Countdown != 0)
      return false;
    ++SamplesSelected;
    Countdown = nextCountdown();
    return true;
  }

  void deliver(uint64_t Ip, uint64_t EffAddr, uint8_t AccessSize,
               bool IsWrite, const cache::AccessResult &Result);
  uint64_t nextCountdown();
  void governorEpoch();

  SamplingConfig Config;
  uint32_t ThreadId;
  SampleSink *Sink = nullptr;
  Rng Jitter;
  uint64_t Countdown;
  uint64_t SamplesDelivered = 0;
  bool SkipStores; ///< Precomputed: PEBS-LL monitors loads only.
  // Overhead governor state (all dormant when GovernorOn is false; the
  // hot path then pays one predictable branch).
  bool GovernorOn = false;
  uint64_t EffectivePeriod;
  uint64_t EpochLeft = 0;
  uint64_t SamplesSelected = 0;
  uint64_t EpochStartSelected = 0;
  std::vector<uint64_t> PeriodTrajectory;
};

} // namespace pmu
} // namespace structslim

#endif // STRUCTSLIM_PMU_ADDRESSSAMPLING_H
