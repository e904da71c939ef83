//===- runtime/SampleReservoir.h - Bounded weighted sample buffer -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity, latency-weighted sample buffer between the PMU and
/// the profile builder (ROADMAP item 3: production runs are unbounded,
/// so resident sample memory must not grow with run length).
///
/// Algorithm: weighted reservoir sampling A-ES with exponential jumps
/// (Efraimidis & Spirakis; the A-ExpJ variant). Each arriving sample of
/// weight w (its access latency, clamped to >= 1) draws a key
/// u^(1/w) with u ~ U(0,1); the reservoir keeps the Capacity largest
/// keys in a min-heap. Once full, instead of drawing a key per arrival,
/// a single exponential jump X = log(r)/log(T) (T = smallest kept key)
/// tells how much *weight* flows by before the next replacement — the
/// expensive log/pow work runs once per replacement, not once per
/// arrival, so a saturated reservoir rejects most samples with one
/// add + compare.
///
/// Every property the analyzer depends on is preserved deterministically:
///  - the RNG is seeded from (sampling seed, thread id), so a run is
///    reproducible and engine-independent — all engines deliver each
///    thread's samples in the thread's own access order;
///  - flush() releases survivors to the inner sink in arrival order, so
///    the builder's incremental stride GCD and representative-address
///    logic see a subsequence of exactly what an unbounded run shows;
///  - call paths are captured at offer time (the interrupted stack has
///    moved on by flush time).
///
/// The reservoir also keeps the evidence the analyzer needs to *know*
/// sampling was lossy: per-IP eviction pressure stamped onto stream
/// records as OfferedSamples/OfferedWeight, profile-level totals, and a
/// peak-resident-bytes high-water mark proving the memory bound.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_RUNTIME_SAMPLERESERVOIR_H
#define STRUCTSLIM_RUNTIME_SAMPLERESERVOIR_H

#include "pmu/AddressSampling.h"
#include "profile/Profile.h"
#include "runtime/ProfileBuilder.h"
#include "support/FlatHash.h"
#include "support/Random.h"

#include <array>
#include <cstdint>
#include <vector>

namespace structslim {
namespace runtime {

/// Per-thread bounded sample buffer; a pmu::SampleSink that wraps the
/// thread's real sink (normally its ProfileBuilder).
class SampleReservoir : public pmu::SampleSink {
public:
  /// \p Capacity must be >= 1 (the runtime only constructs a reservoir
  /// when SamplingConfig::ReservoirCapacity is nonzero).
  SampleReservoir(pmu::SampleSink &Inner, uint64_t Capacity, uint64_t Seed);

  /// Captures the live call path at offer time (onSampleAt callers pass
  /// explicit paths instead).
  void setCallPathProvider(const CallPathProvider *Provider) {
    this->Provider = Provider;
  }

  void onSample(const pmu::AddressSample &Sample) override;
  void onSampleAt(const pmu::AddressSample &Sample, const uint64_t *Path,
                  size_t PathLen) override;

  /// Delivers the surviving samples to the inner sink in arrival order
  /// and drops them from the reservoir. Call once, after the run's last
  /// sample and before ProfileBuilder::take().
  void flush();

  /// Stamps reservoir accounting onto \p P: profile-level totals plus
  /// the evicted-sample pressure per stream (matched by IP; when one IP
  /// feeds several streams — same instruction, different object
  /// instances — the first stream in creation order absorbs the
  /// pressure, an explicitly coarse attribution that still flags the
  /// stream as truncated). Call after flush() and take().
  void stampProfile(profile::Profile &P) const;

  uint64_t getCapacity() const { return Capacity; }
  uint64_t getSeen() const { return Seen; }
  uint64_t getEvictions() const { return Evictions; }
  uint64_t getWeightSeen() const { return WeightSeen; }
  uint64_t getWeightKept() const { return WeightKept; }
  uint64_t getPeakBytes() const { return PeakBytes; }
  size_t getLiveCount() const { return HeapIdx.size(); }

private:
  struct Slot {
    pmu::AddressSample Sample;
    std::vector<uint64_t> Path;
    uint64_t Seq = 0; ///< Arrival index, for order-preserving flush.
    double Key = 0;   ///< A-ES key u^(1/w); heap keeps the largest.
  };

  void offer(const pmu::AddressSample &Sample, const uint64_t *Path,
             size_t PathLen);
  void place(uint32_t SlotIndex, const pmu::AddressSample &Sample,
             const uint64_t *Path, size_t PathLen, double Key);
  void heapPush(uint32_t SlotIndex);
  uint32_t heapPopMin();
  void drawJump();
  void noteEviction(uint64_t Ip, uint64_t Weight);
  double unitDraw();

  pmu::SampleSink &Inner;
  const CallPathProvider *Provider = nullptr;
  uint64_t Capacity;
  Rng Rand;

  std::vector<Slot> Slots;        ///< Dense storage, Capacity entries max.
  std::vector<uint32_t> HeapIdx;  ///< Min-heap over Slots by (Key, Seq).
  double JumpLeft = 0;            ///< Weight to skip before next insert.
  /// Cached Slots[HeapIdx.front()].Key, refreshed whenever the heap
  /// root can move (push/pop), so the saturated paths that need the
  /// threshold T read one member instead of chasing heap and slot.
  double MinKey = 0;

  uint64_t Seen = 0;
  uint64_t Evictions = 0;
  uint64_t WeightSeen = 0;
  uint64_t WeightKept = 0; ///< Final kept mass; computed at flush().
  uint64_t NextSeq = 0;
  uint64_t CurBytes = 0;  ///< Live slot + stored-path bytes.
  uint64_t PeakBytes = 0;

  /// Evicted-sample pressure per sampled IP: pair payload packs the
  /// count (low) and latency mass via a parallel map.
  support::FlatPairMap EvictedByIp; ///< (Ip, 0) -> index into EvictedAgg.
  struct Pressure {
    uint64_t Count = 0;
    uint64_t Weight = 0;
  };
  std::vector<Pressure> EvictedAgg;
  /// Direct-mapped memo in front of EvictedByIp: a saturated reservoir
  /// rejects almost every arrival, and the per-reject cost is the
  /// pressure lookup. Sampled code touches few distinct IPs, so a small
  /// cache of (Ip -> EvictedAgg index) turns the common reject into one
  /// compare plus two adds. Pure cache: misses fall back to the map, so
  /// EvictedAgg indices (and the profile) are unchanged.
  struct IpMemoEntry {
    uint64_t Ip = 0;
    uint32_t Index = support::FlatPairMap::Npos; ///< Npos = empty.
  };
  std::array<IpMemoEntry, 256> IpMemo{};
};

} // namespace runtime
} // namespace structslim

#endif // STRUCTSLIM_RUNTIME_SAMPLERESERVOIR_H
