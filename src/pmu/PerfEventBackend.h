//===- pmu/PerfEventBackend.h - Real PEBS via perf_event --------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A real-hardware address-sampling backend over Linux perf_event_open,
/// targeting the same PEBS-LL mechanism the paper uses: the precise
/// "mem-loads" event with a load-latency threshold, sampling
/// PERF_SAMPLE_IP | PERF_SAMPLE_ADDR | PERF_SAMPLE_WEIGHT — exactly the
/// (instruction pointer, effective address, latency) triple StructSlim
/// consumes. Samples are delivered through the same SampleSink
/// interface as the simulated PMU, so the online ProfileBuilder works
/// unchanged on real traces.
///
/// Availability is probed at runtime: unprivileged containers, non-x86
/// hosts and kernels without the precise mem-loads event report
/// "unsupported" with a reason instead of failing. The simulator
/// remains the default substrate; this backend exists to show the
/// analysis layer is hardware-ready (the paper's tool runs exactly this
/// configuration on a Xeon).
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PMU_PERFEVENTBACKEND_H
#define STRUCTSLIM_PMU_PERFEVENTBACKEND_H

#include "pmu/AddressSampling.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace structslim {
namespace pmu {

/// Hardware address sampler for the calling thread.
class PerfEventSampler {
public:
  struct Config {
    uint64_t Period = 10000;   ///< One sample per N qualifying loads.
    unsigned LoadLatency = 3;  ///< PEBS-LL latency threshold (cycles).
    size_t RingPages = 64;     ///< Ring-buffer data pages (power of 2).
  };

  explicit PerfEventSampler(const Config &Config);
  ~PerfEventSampler();

  PerfEventSampler(const PerfEventSampler &) = delete;
  PerfEventSampler &operator=(const PerfEventSampler &) = delete;

  /// Probes whether precise load sampling can be opened on this
  /// host/kernel/permission level. Fills \p Reason when not.
  static bool isSupported(std::string *Reason = nullptr);

  /// Parses a sysfs event encoding such as "event=0xcd,umask=0x1,ldlat=3"
  /// into the raw perf config (event | umask << 8) and config1 (the
  /// load-latency threshold; a nonzero \p LoadLatency overrides the
  /// advertised one). Term values are decimal, 0x-hex or 0-octal; a
  /// term without '=' counts as 1. Returns false — the event is then
  /// unsupported — when a value is not a number that fits in 64 bits or
  /// when no event code results.
  static bool parseEventEncoding(std::string_view Spec, unsigned LoadLatency,
                                 uint64_t &EventConfig,
                                 uint64_t &LdLatConfig1);

  /// Opens the event for the calling thread and enables sampling into
  /// \p Sink. Returns false with \p Error on failure.
  bool start(SampleSink &Sink, std::string *Error = nullptr);

  /// Drains the ring buffer, delivering queued samples to the sink.
  /// Returns the number of samples delivered this call.
  size_t poll();

  /// Disables the event and drains any final samples.
  void stop();

  uint64_t getSamplesDelivered() const { return SamplesDelivered; }
  uint64_t getRecordsLost() const { return RecordsLost; }
  bool isRunning() const { return Fd >= 0; }

private:
  bool openEvent(std::string *Error);

  Config Cfg;
  SampleSink *Sink = nullptr;
  int Fd = -1;
  void *Ring = nullptr;
  size_t RingBytes = 0;
  uint64_t SamplesDelivered = 0;
  uint64_t RecordsLost = 0;
};

} // namespace pmu
} // namespace structslim

#endif // STRUCTSLIM_PMU_PERFEVENTBACKEND_H
