//===- pmu/AddressSampling.cpp --------------------------------*- C++ -*-===//

#include "pmu/AddressSampling.h"

#include "support/Error.h"

using namespace structslim;
using namespace structslim::pmu;

SampleSink::~SampleSink() = default;

PmuModel::PmuModel(const SamplingConfig &Config, uint32_t ThreadId)
    : Config(Config), ThreadId(ThreadId),
      Jitter(Config.Seed * 0x9e3779b97f4a7c15ULL + ThreadId + 1),
      SkipStores(Config.Flavor == PmuFlavor::PebsLoadLatency) {
  if (Config.Period == 0)
    fatalError("pmu: sampling period must be >= 1 (got 0; detach the "
               "sink to disable sampling)");
  EffectivePeriod = Config.Period;
  GovernorOn = Config.SampleBudgetPerMAccess != 0;
  if (GovernorOn) {
    if (Config.EpochAccesses == 0)
      fatalError("pmu: governor epoch must be >= 1 access");
    if (Config.GovernorMinPeriod == 0 ||
        Config.GovernorMinPeriod > Config.GovernorMaxPeriod)
      fatalError("pmu: governor period clamp must satisfy "
                 "1 <= min <= max");
    EpochLeft = Config.EpochAccesses;
  }
  Countdown = nextCountdown();
}

uint64_t PmuModel::nextCountdown() {
  // Periods 1-3 (and RandomizePeriod off) sample exactly every
  // EffectivePeriod-th eligible access: Quarter would be 0, so jitter
  // could not widen the window anyway, and an exact countdown keeps the
  // pre-decrement in tick() from ever underflowing (Countdown >= 1
  // always holds on entry).
  if (!Config.RandomizePeriod || EffectivePeriod < 4)
    return EffectivePeriod;
  // +/- 25% jitter around the effective period, as hardware
  // randomization does, so strided code cannot alias with the sampling
  // period. The governor moves EffectivePeriod, never the jitter shape.
  uint64_t Quarter = EffectivePeriod / 4;
  return EffectivePeriod - Quarter + Jitter.nextBelow(2 * Quarter + 1);
}

void PmuModel::governorEpoch() {
  EpochLeft = Config.EpochAccesses;
  uint64_t Target =
      Config.SampleBudgetPerMAccess * Config.EpochAccesses / 1000000;
  if (Target == 0)
    Target = 1;
  uint64_t Selected = SamplesSelected - EpochStartSelected;
  EpochStartSelected = SamplesSelected;
  // Multiplicative re-fit: if the epoch selected S samples at period P,
  // the access rate was ~S*P, so the period hitting Target is P*S/T.
  // One epoch of measurement therefore converges for a stable access
  // rate. A silent epoch (period far too long) halves the period
  // instead, probing faster geometrically.
  uint64_t NewPeriod = Selected == 0 ? EffectivePeriod / 2
                                     : EffectivePeriod * Selected / Target;
  if (NewPeriod < Config.GovernorMinPeriod)
    NewPeriod = Config.GovernorMinPeriod;
  if (NewPeriod > Config.GovernorMaxPeriod)
    NewPeriod = Config.GovernorMaxPeriod;
  EffectivePeriod = NewPeriod;
  PeriodTrajectory.push_back(EffectivePeriod);
  // Re-arm immediately so the new period takes effect this epoch, not
  // after the old (possibly enormous) countdown drains.
  Countdown = nextCountdown();
}

void PmuModel::deliver(uint64_t Ip, uint64_t EffAddr, uint8_t AccessSize,
                       bool IsWrite, const cache::AccessResult &Result) {
  AddressSample Sample;
  Sample.ThreadId = ThreadId;
  Sample.Ip = Ip;
  Sample.EffAddr = EffAddr;
  Sample.AccessSize = AccessSize;
  Sample.Latency = Result.Latency;
  Sample.Served = Result.Served;
  Sample.IsWrite = IsWrite;
  Sample.TlbMiss = Result.TlbMiss;
  ++SamplesDelivered;
  Sink->onSample(Sample);
}
