//===- pmu/PerfEventBackend.cpp -------------------------------*- C++ -*-===//

#include "pmu/PerfEventBackend.h"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <vector>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

using namespace structslim;
using namespace structslim::pmu;

PerfEventSampler::PerfEventSampler(const Config &Config) : Cfg(Config) {}

PerfEventSampler::~PerfEventSampler() { stop(); }

namespace {

/// Parses one term value with the prefixes strtoull's base 0 accepts;
/// the whole text must be consumed.
bool parseTermValue(std::string_view Text, uint64_t &Value) {
  int Base = 10;
  if (Text.size() > 2 && Text[0] == '0' && (Text[1] == 'x' || Text[1] == 'X')) {
    Base = 16;
    Text.remove_prefix(2);
  } else if (Text.size() > 1 && Text[0] == '0') {
    Base = 8;
    Text.remove_prefix(1);
  }
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value, Base);
  return Ec == std::errc() && Ptr == End;
}

} // namespace

bool PerfEventSampler::parseEventEncoding(std::string_view Spec,
                                          unsigned LoadLatency,
                                          uint64_t &EventConfig,
                                          uint64_t &LdLatConfig1) {
  EventConfig = 0;
  LdLatConfig1 = 0;
  while (!Spec.empty()) {
    size_t Comma = Spec.find(',');
    std::string_view Term = Spec.substr(0, Comma);
    Spec = Comma == std::string_view::npos ? std::string_view()
                                           : Spec.substr(Comma + 1);
    size_t Eq = Term.find('=');
    std::string_view Key = Term.substr(0, Eq);
    uint64_t Value = 1;
    if (Eq != std::string_view::npos &&
        !parseTermValue(Term.substr(Eq + 1), Value))
      return false;
    if (Key == "event")
      EventConfig |= Value;
    else if (Key == "umask")
      EventConfig |= Value << 8;
    else if (Key == "ldlat")
      LdLatConfig1 = LoadLatency ? LoadLatency : Value;
  }
  return EventConfig != 0;
}

#ifdef __linux__

namespace {

/// Reads the raw event encoding of the precise "mem-loads" event from
/// sysfs (e.g. "event=0xcd,umask=0x1,ldlat=3" on Intel). Returns false,
/// filling \p Reason when non-null, when the PMU does not advertise the
/// event or advertises an encoding that does not parse.
bool readMemLoadsEncoding(uint64_t &EventConfig, uint64_t &LdLatConfig1,
                          unsigned LoadLatency, std::string *Reason) {
  std::ifstream In("/sys/bus/event_source/devices/cpu/events/mem-loads");
  std::string Spec;
  if (!In || !std::getline(In, Spec)) {
    if (Reason)
      *Reason = "no precise mem-loads event advertised by the cpu PMU "
                "(non-Intel host, virtualized PMU, or no PEBS)";
    return false;
  }
  if (!PerfEventSampler::parseEventEncoding(Spec, LoadLatency, EventConfig,
                                            LdLatConfig1)) {
    if (Reason)
      *Reason = "malformed mem-loads event encoding '" + Spec + "' in sysfs";
    return false;
  }
  return true;
}

long perfEventOpen(perf_event_attr *Attr, pid_t Pid, int Cpu, int GroupFd,
                   unsigned long Flags) {
  return syscall(SYS_perf_event_open, Attr, Pid, Cpu, GroupFd, Flags);
}

perf_event_attr makeAttr(const PerfEventSampler::Config &Cfg) {
  perf_event_attr Attr;
  std::memset(&Attr, 0, sizeof(Attr));
  Attr.size = sizeof(Attr);
  Attr.type = PERF_TYPE_RAW;
  uint64_t EventConfig = 0, LdLat = 0;
  readMemLoadsEncoding(EventConfig, LdLat, Cfg.LoadLatency, nullptr);
  Attr.config = EventConfig;
  Attr.config1 = LdLat;
  Attr.sample_period = Cfg.Period;
  Attr.sample_type =
      PERF_SAMPLE_IP | PERF_SAMPLE_ADDR | PERF_SAMPLE_WEIGHT;
  Attr.precise_ip = 2; // PEBS.
  Attr.disabled = 1;
  Attr.exclude_kernel = 1;
  Attr.exclude_hv = 1;
  return Attr;
}

} // namespace

bool PerfEventSampler::isSupported(std::string *Reason) {
  uint64_t EventConfig = 0, LdLat = 0;
  if (!readMemLoadsEncoding(EventConfig, LdLat, 3, Reason))
    return false;
  Config Probe;
  perf_event_attr Attr = makeAttr(Probe);
  long Fd = perfEventOpen(&Attr, 0, -1, -1, 0);
  if (Fd < 0) {
    if (Reason)
      *Reason = std::string("perf_event_open failed: ") +
                std::strerror(errno);
    return false;
  }
  close(static_cast<int>(Fd));
  return true;
}

bool PerfEventSampler::openEvent(std::string *Error) {
  perf_event_attr Attr = makeAttr(Cfg);
  long Fd = perfEventOpen(&Attr, 0, -1, -1, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("perf_event_open: ") + std::strerror(errno);
    return false;
  }
  this->Fd = static_cast<int>(Fd);

  RingBytes = (Cfg.RingPages + 1) * static_cast<size_t>(getpagesize());
  Ring = mmap(nullptr, RingBytes, PROT_READ | PROT_WRITE, MAP_SHARED,
              this->Fd, 0);
  if (Ring == MAP_FAILED) {
    if (Error)
      *Error = std::string("mmap of the perf ring failed: ") +
               std::strerror(errno);
    close(this->Fd);
    this->Fd = -1;
    Ring = nullptr;
    return false;
  }
  return true;
}

bool PerfEventSampler::start(SampleSink &Sink, std::string *Error) {
  if (Fd >= 0) {
    if (Error)
      *Error = "sampler already running";
    return false;
  }
  if (!openEvent(Error))
    return false;
  this->Sink = &Sink;
  ioctl(Fd, PERF_EVENT_IOC_RESET, 0);
  ioctl(Fd, PERF_EVENT_IOC_ENABLE, 0);
  return true;
}

size_t PerfEventSampler::poll() {
  if (Fd < 0 || !Ring)
    return 0;
  auto *Meta = static_cast<perf_event_mmap_page *>(Ring);
  auto *Data = static_cast<uint8_t *>(Ring) + getpagesize();
  uint64_t DataSize = RingBytes - static_cast<size_t>(getpagesize());

  uint64_t Head = __atomic_load_n(&Meta->data_head, __ATOMIC_ACQUIRE);
  uint64_t Tail = Meta->data_tail;
  size_t Delivered = 0;

  while (Tail < Head) {
    auto *Header =
        reinterpret_cast<perf_event_header *>(Data + (Tail % DataSize));
    // Records never wrap in practice with power-of-two rings, but copy
    // defensively when one would.
    std::vector<uint8_t> Copy;
    uint8_t *Record = reinterpret_cast<uint8_t *>(Header);
    if (Tail % DataSize + Header->size > DataSize) {
      Copy.resize(Header->size);
      size_t First = DataSize - Tail % DataSize;
      std::memcpy(Copy.data(), Record, First);
      std::memcpy(Copy.data() + First, Data, Header->size - First);
      Record = Copy.data();
      Header = reinterpret_cast<perf_event_header *>(Record);
    }

    if (Header->type == PERF_RECORD_SAMPLE) {
      // Layout per sample_type: ip, addr, weight (all u64).
      const uint64_t *Fields =
          reinterpret_cast<const uint64_t *>(Record + sizeof(*Header));
      AddressSample Sample;
      Sample.Ip = Fields[0];
      Sample.EffAddr = Fields[1];
      Sample.Latency = static_cast<uint32_t>(Fields[2]);
      Sample.AccessSize = 8; // Width is not reported by this event.
      ++SamplesDelivered;
      ++Delivered;
      if (Sink)
        Sink->onSample(Sample);
    } else if (Header->type == PERF_RECORD_LOST) {
      const uint64_t *Fields =
          reinterpret_cast<const uint64_t *>(Record + sizeof(*Header));
      RecordsLost += Fields[1]; // {id, lost}.
    }
    Tail += Header->size;
  }
  __atomic_store_n(&Meta->data_tail, Tail, __ATOMIC_RELEASE);
  return Delivered;
}

void PerfEventSampler::stop() {
  if (Fd < 0)
    return;
  ioctl(Fd, PERF_EVENT_IOC_DISABLE, 0);
  poll();
  if (Ring)
    munmap(Ring, RingBytes);
  close(Fd);
  Fd = -1;
  Ring = nullptr;
  Sink = nullptr;
}

#else // !__linux__

bool PerfEventSampler::isSupported(std::string *Reason) {
  if (Reason)
    *Reason = "perf_event_open is Linux-only";
  return false;
}

bool PerfEventSampler::start(SampleSink &, std::string *Error) {
  if (Error)
    *Error = "perf_event_open is Linux-only";
  return false;
}

size_t PerfEventSampler::poll() { return 0; }

void PerfEventSampler::stop() {}

#endif // __linux__
