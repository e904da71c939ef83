//===- tests/pmu_test.cpp - Address-sampling PMU tests ---------*- C++ -*-===//

#include "pmu/AddressSampling.h"

#include <gtest/gtest.h>

#include <vector>

using namespace structslim;
using namespace structslim::pmu;

namespace {

class Collector : public SampleSink {
public:
  std::vector<AddressSample> Samples;
  void onSample(const AddressSample &S) override { Samples.push_back(S); }
};

cache::AccessResult l1Hit() { return {4, cache::MemLevel::L1}; }

} // namespace

TEST(Pmu, ExactPeriodWithoutJitter) {
  SamplingConfig Cfg;
  Cfg.Period = 100;
  Cfg.RandomizePeriod = false;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  for (uint64_t I = 0; I != 1000; ++I)
    Pmu.onAccess(0x400000 + I, 0x1000 + I, 8, false, l1Hit());
  EXPECT_EQ(Sink.Samples.size(), 10u);
  EXPECT_EQ(Pmu.getSamplesDelivered(), 10u);
  // Every 100th access, starting at the 100th (index 99).
  EXPECT_EQ(Sink.Samples[0].Ip, 0x400000u + 99);
  EXPECT_EQ(Sink.Samples[1].Ip, 0x400000u + 199);
}

TEST(Pmu, JitteredPeriodStaysWithinBounds) {
  SamplingConfig Cfg;
  Cfg.Period = 1000;
  Cfg.RandomizePeriod = true;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  uint64_t Count = 200000;
  for (uint64_t I = 0; I != Count; ++I)
    Pmu.onAccess(I, I, 8, false, l1Hit());
  // +/-25% jitter: between Count/1250 and Count/750 samples.
  EXPECT_GE(Sink.Samples.size(), Count / 1250);
  EXPECT_LE(Sink.Samples.size(), Count / 750);
  // Gaps between samples obey the randomized window.
  for (size_t I = 1; I < Sink.Samples.size(); ++I) {
    uint64_t Gap = Sink.Samples[I].Ip - Sink.Samples[I - 1].Ip;
    EXPECT_GE(Gap, 750u);
    EXPECT_LE(Gap, 1250u);
  }
}

TEST(Pmu, PebsLoadLatencySkipsStores) {
  SamplingConfig Cfg;
  Cfg.Period = 10;
  Cfg.RandomizePeriod = false;
  Cfg.Flavor = PmuFlavor::PebsLoadLatency;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  // Alternate loads and stores: only loads advance the counter.
  for (uint64_t I = 0; I != 100; ++I)
    Pmu.onAccess(I, I, 8, /*IsWrite=*/I % 2 == 1, l1Hit());
  EXPECT_EQ(Sink.Samples.size(), 5u);
  for (const AddressSample &S : Sink.Samples)
    EXPECT_FALSE(S.IsWrite);
}

TEST(Pmu, IbsSamplesStoresToo) {
  SamplingConfig Cfg;
  Cfg.Period = 10;
  Cfg.RandomizePeriod = false;
  Cfg.Flavor = PmuFlavor::IbsOp;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  for (uint64_t I = 0; I != 100; ++I)
    Pmu.onAccess(I, I, 8, /*IsWrite=*/I % 2 == 1, l1Hit());
  EXPECT_EQ(Sink.Samples.size(), 10u);
  bool SawWrite = false;
  for (const AddressSample &S : Sink.Samples)
    SawWrite |= S.IsWrite;
  EXPECT_TRUE(SawWrite);
}

TEST(Pmu, SampleCarriesFullRecord) {
  SamplingConfig Cfg;
  Cfg.Period = 1;
  Cfg.RandomizePeriod = false;
  PmuModel Pmu(Cfg, /*ThreadId=*/3);
  Collector Sink;
  Pmu.setSink(&Sink);
  cache::AccessResult R{40, cache::MemLevel::L3};
  Pmu.onAccess(0x401234, 0xbeef, 4, false, R);
  ASSERT_EQ(Sink.Samples.size(), 1u);
  const AddressSample &S = Sink.Samples[0];
  EXPECT_EQ(S.ThreadId, 3u);
  EXPECT_EQ(S.Ip, 0x401234u);
  EXPECT_EQ(S.EffAddr, 0xbeefu);
  EXPECT_EQ(S.Latency, 40u);
  EXPECT_EQ(S.AccessSize, 4u);
  EXPECT_EQ(S.Served, cache::MemLevel::L3);
}

TEST(Pmu, DetachedPmuDeliversNothing) {
  SamplingConfig Cfg;
  Cfg.Period = 1;
  Cfg.RandomizePeriod = false;
  PmuModel Pmu(Cfg, 0);
  for (uint64_t I = 0; I != 100; ++I)
    Pmu.onAccess(I, I, 8, false, l1Hit());
  EXPECT_EQ(Pmu.getSamplesDelivered(), 0u);
}

// A zero period has no meaning ("never sample" is a detached sink;
// "every access" is period 1) — construction must abort loudly instead
// of underflowing the countdown.
TEST(PmuDeath, ZeroPeriodAborts) {
  SamplingConfig Cfg;
  Cfg.Period = 0;
  EXPECT_DEATH(PmuModel(Cfg, 0), "period must be >= 1");
}

// Periods 1-3 are below the jitter granularity (a +/-25% window would
// round to zero and stall the countdown): they sample exactly, even
// with RandomizePeriod left on.
TEST(Pmu, TinyPeriodsSampleExactlyDespiteJitter) {
  for (uint64_t Period : {1u, 2u, 3u}) {
    SamplingConfig Cfg;
    Cfg.Period = Period;
    Cfg.RandomizePeriod = true;
    PmuModel Pmu(Cfg, 0);
    Collector Sink;
    Pmu.setSink(&Sink);
    for (uint64_t I = 0; I != 600; ++I)
      Pmu.onAccess(I, I, 8, false, l1Hit());
    ASSERT_EQ(Sink.Samples.size(), 600 / Period) << "period " << Period;
    for (size_t I = 1; I < Sink.Samples.size(); ++I)
      EXPECT_EQ(Sink.Samples[I].Ip - Sink.Samples[I - 1].Ip, Period);
  }
}

// The overhead governor re-fits the effective period at the first
// epoch boundary and is on budget from the second epoch on (the
// one-epoch convergence contract).
TEST(Pmu, GovernorConvergesWithinOneEpoch) {
  SamplingConfig Cfg;
  Cfg.Period = 10; // 100x oversampled against the budget below.
  Cfg.RandomizePeriod = false;
  Cfg.SampleBudgetPerMAccess = 1000;
  Cfg.EpochAccesses = 100000; // Target: 100 samples per epoch.
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  for (uint64_t I = 0; I != 300000; ++I)
    Pmu.onAccess(I, I, 8, false, l1Hit());
  // Epoch 1 selected 9999 (the boundary access re-fits before its own
  // countdown tick) -> 10 * 9999/100 = 999; every later epoch selects
  // exactly 100 = budget, so the period never moves again.
  ASSERT_EQ(Pmu.getPeriodTrajectory().size(), 3u);
  for (uint64_t P : Pmu.getPeriodTrajectory())
    EXPECT_EQ(P, 999u);
  EXPECT_EQ(Pmu.getEffectivePeriod(), 999u);
  // Epochs 2 and 3 delivered exactly the budget: 100 samples each.
  uint64_t LateSamples = 0;
  for (const AddressSample &S : Sink.Samples)
    LateSamples += S.Ip >= 100000;
  EXPECT_EQ(LateSamples, 200u);
}

// An epoch that selects nothing halves the period (multiplicative
// re-fit has no signal to scale): the governor probes downward until
// samples flow again or the clamp floor stops it.
TEST(Pmu, GovernorHalvesPeriodOnSilentEpochs) {
  SamplingConfig Cfg;
  Cfg.Period = 1 << 20; // Far larger than the epoch: silent epochs.
  Cfg.RandomizePeriod = false;
  Cfg.SampleBudgetPerMAccess = 1000;
  Cfg.EpochAccesses = 1000;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  for (uint64_t I = 0; I != 8000; ++I)
    Pmu.onAccess(I, I, 8, false, l1Hit());
  const std::vector<uint64_t> &Traj = Pmu.getPeriodTrajectory();
  ASSERT_EQ(Traj.size(), 8u);
  EXPECT_EQ(Traj[0], (1u << 20) / 2);
  for (size_t I = 1; I != Traj.size(); ++I)
    EXPECT_EQ(Traj[I], Traj[I - 1] / 2);
}

// The governed period honors both clamp bounds.
TEST(Pmu, GovernorRespectsClampBounds) {
  {
    SamplingConfig Cfg;
    Cfg.Period = 100;
    Cfg.RandomizePeriod = false;
    Cfg.SampleBudgetPerMAccess = 1000000; // Wants period 1.
    Cfg.EpochAccesses = 10000;
    Cfg.GovernorMinPeriod = 16;
    PmuModel Pmu(Cfg, 0);
    Collector Sink;
    Pmu.setSink(&Sink);
    for (uint64_t I = 0; I != 10000; ++I)
      Pmu.onAccess(I, I, 8, false, l1Hit());
    ASSERT_EQ(Pmu.getPeriodTrajectory().size(), 1u);
    EXPECT_EQ(Pmu.getPeriodTrajectory()[0], 16u);
  }
  {
    SamplingConfig Cfg;
    Cfg.Period = 1000;
    Cfg.RandomizePeriod = false;
    Cfg.SampleBudgetPerMAccess = 1; // Wants period 10000.
    Cfg.EpochAccesses = 10000;
    Cfg.GovernorMaxPeriod = 5000;
    PmuModel Pmu(Cfg, 0);
    Collector Sink;
    Pmu.setSink(&Sink);
    for (uint64_t I = 0; I != 10000; ++I)
      Pmu.onAccess(I, I, 8, false, l1Hit());
    ASSERT_EQ(Pmu.getPeriodTrajectory().size(), 1u);
    EXPECT_EQ(Pmu.getPeriodTrajectory()[0], 5000u);
  }
}

// With the governor active, the PEBS +/-25% jitter window applies
// around the *effective* period, not the nominal one.
TEST(Pmu, GovernorJitterTracksEffectivePeriod) {
  SamplingConfig Cfg;
  Cfg.Period = 10;
  Cfg.RandomizePeriod = true;
  Cfg.SampleBudgetPerMAccess = 1000;
  Cfg.EpochAccesses = 100000;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  for (uint64_t I = 0; I != 400000; ++I)
    Pmu.onAccess(I, I, 8, false, l1Hit());
  const std::vector<uint64_t> &Traj = Pmu.getPeriodTrajectory();
  ASSERT_GE(Traj.size(), 2u);
  // Samples in the final epoch ran under the second-to-last trajectory
  // entry (the last entry is the re-fit at the run's final boundary).
  uint64_t Effective = Traj[Traj.size() - 2];
  // Check gaps in the final epoch (period long since converged).
  std::vector<uint64_t> Late;
  for (const AddressSample &S : Sink.Samples)
    if (S.Ip >= 300000)
      Late.push_back(S.Ip);
  ASSERT_GT(Late.size(), 10u);
  for (size_t I = 1; I != Late.size(); ++I) {
    uint64_t Gap = Late[I] - Late[I - 1];
    EXPECT_GE(Gap, Effective - Effective / 4);
    EXPECT_LE(Gap, Effective + Effective / 4);
  }
}

TEST(Pmu, DifferentThreadsJitterIndependently) {
  SamplingConfig Cfg;
  Cfg.Period = 1000;
  PmuModel A(Cfg, 0), B(Cfg, 1);
  Collector SinkA, SinkB;
  A.setSink(&SinkA);
  B.setSink(&SinkB);
  for (uint64_t I = 0; I != 10000; ++I) {
    A.onAccess(I, I, 8, false, l1Hit());
    B.onAccess(I, I, 8, false, l1Hit());
  }
  ASSERT_FALSE(SinkA.Samples.empty());
  ASSERT_FALSE(SinkB.Samples.empty());
  // Same seed but different thread ids: first sample points differ.
  EXPECT_NE(SinkA.Samples[0].Ip, SinkB.Samples[0].Ip);
}
