//===- tests/perfevent_test.cpp - Hardware backend tests -------*- C++ -*-===//
//
// The perf_event backend depends on host capabilities (Intel PEBS,
// perf_event_paranoid, container seccomp). These tests therefore assert
// the *contract*: capability probing returns a reason when unsupported,
// start() fails cleanly rather than crashing, and when sampling IS
// available, real samples carry plausible (ip, addr, latency) triples
// into the standard SampleSink pipeline.
//
//===----------------------------------------------------------------------===//

#include "pmu/PerfEventBackend.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

using namespace structslim;
using namespace structslim::pmu;

namespace {

class Collector : public SampleSink {
public:
  std::vector<AddressSample> Samples;
  void onSample(const AddressSample &S) override { Samples.push_back(S); }
};

} // namespace

TEST(PerfEvent, ProbeGivesReasonWhenUnsupported) {
  std::string Reason;
  bool Supported = PerfEventSampler::isSupported(&Reason);
  if (!Supported) {
    EXPECT_FALSE(Reason.empty());
  }
  // Either outcome is valid; the probe must not crash or hang.
}

TEST(PerfEvent, ParsesSysfsEventEncoding) {
  uint64_t Event = 0, LdLat = 0;
  ASSERT_TRUE(PerfEventSampler::parseEventEncoding(
      "event=0xcd,umask=0x1,ldlat=3", /*LoadLatency=*/0, Event, LdLat));
  EXPECT_EQ(Event, 0x1cdu);
  EXPECT_EQ(LdLat, 3u);
  // A configured threshold overrides the advertised one; decimal and
  // octal values parse like strtoull's base 0.
  ASSERT_TRUE(
      PerfEventSampler::parseEventEncoding("event=205,umask=010,ldlat=3",
                                           /*LoadLatency=*/30, Event, LdLat));
  EXPECT_EQ(Event, 205u | (8u << 8));
  EXPECT_EQ(LdLat, 30u);
}

// A malformed sysfs term must make the event unsupported, never abort
// the process (std::stoull used to throw out of the probe).
TEST(PerfEvent, MalformedSysfsTermIsUnsupportedNotFatal) {
  for (const char *Spec :
       {"event=zz", "event=0xcd,umask=0x1zz", "event=", "event=0x",
        "event=0xcd,umask=-1", "event=99999999999999999999999",
        "event=08", "ldlat=3"}) {
    uint64_t Event = 0, LdLat = 0;
    EXPECT_FALSE(PerfEventSampler::parseEventEncoding(Spec, 3, Event, LdLat))
        << Spec;
  }
}

TEST(PerfEvent, StartFailsCleanlyWhenUnsupported) {
  std::string Reason;
  if (PerfEventSampler::isSupported(&Reason))
    GTEST_SKIP() << "hardware sampling available; covered below";
  PerfEventSampler Sampler((PerfEventSampler::Config()));
  Collector Sink;
  std::string Error;
  EXPECT_FALSE(Sampler.start(Sink, &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(Sampler.isRunning());
  EXPECT_EQ(Sampler.poll(), 0u);
  Sampler.stop(); // Must be a no-op, not a crash.
}

TEST(PerfEvent, SamplesRealLoadsWhenSupported) {
  std::string Reason;
  if (!PerfEventSampler::isSupported(&Reason))
    GTEST_SKIP() << "hardware sampling unavailable: " << Reason;

  PerfEventSampler::Config Cfg;
  Cfg.Period = 1000;
  PerfEventSampler Sampler(Cfg);
  Collector Sink;
  std::string Error;
  ASSERT_TRUE(Sampler.start(Sink, &Error)) << Error;

  // Generate qualifying loads: a strided sweep over a few MB.
  std::vector<uint64_t> Data(1 << 20);
  std::iota(Data.begin(), Data.end(), 0ull);
  volatile uint64_t Acc = 0;
  for (int Round = 0; Round != 16; ++Round)
    for (size_t I = 0; I < Data.size(); I += 8)
      Acc = Acc + Data[I];
  (void)Acc;
  Sampler.poll();
  Sampler.stop();

  ASSERT_FALSE(Sink.Samples.empty());
  for (const AddressSample &S : Sink.Samples) {
    EXPECT_NE(S.Ip, 0u);
    // Latency is a cycle count; plausible range, not exact.
    EXPECT_LT(S.Latency, 1000000u);
  }
}

TEST(PerfEvent, DoubleStartRejected) {
  std::string Reason;
  if (!PerfEventSampler::isSupported(&Reason))
    GTEST_SKIP() << "hardware sampling unavailable: " << Reason;
  PerfEventSampler Sampler((PerfEventSampler::Config()));
  Collector Sink;
  ASSERT_TRUE(Sampler.start(Sink));
  std::string Error;
  EXPECT_FALSE(Sampler.start(Sink, &Error));
  EXPECT_NE(Error.find("already running"), std::string::npos);
  Sampler.stop();
}
