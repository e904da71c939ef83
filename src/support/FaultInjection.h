//===- support/FaultInjection.h - Deterministic fault hooks ----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the profile pipeline. Production
/// profile consumers must tolerate truncated, corrupted, or missing
/// per-thread profile shards (BOLT and PROMPT both degrade gracefully
/// on stale/partial profiles); this hook lets tests — and a seeded
/// chaos mode — force those failures at the exact I/O boundaries where
/// they occur in the wild:
///
///   - ProfileWrite:     the serialized shard bytes about to hit disk
///                       (truncation models a mid-write crash, a byte
///                       flip models media/transport corruption);
///   - ProfileOpenRead:  opening a shard for the offline merge;
///   - ProfileOpenWrite: creating a per-thread dump file;
///   - MergeShardAlloc:  buffering a loaded shard in the merge loader
///                       (models allocation failure under memory
///                       pressure).
///
/// Tests arm exact faults ("fail the 3rd open"); setting the
/// STRUCTSLIM_FAULT_SEED environment variable to a whole decimal number
/// arms a pseudo-random chaos mode that is fully reproducible for a
/// given seed and hit sequence (a malformed seed is ignored with a
/// warning). Unarmed, every hook is a single relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_FAULTINJECTION_H
#define STRUCTSLIM_SUPPORT_FAULTINJECTION_H

#include "support/Random.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace structslim {
namespace support {

/// Instrumented operations a fault can be attached to.
enum class FaultSite : unsigned {
  ProfileWrite = 0, ///< Serialized profile bytes (buffer mutation).
  ProfileOpenRead,  ///< Opening a profile shard for reading.
  ProfileOpenWrite, ///< Creating a profile shard for writing.
  MergeShardAlloc,  ///< Buffering a loaded shard in the merge loader.
};
constexpr unsigned NumFaultSites = 4;

/// What an armed fault does when its hit comes up.
enum class FaultAction : unsigned {
  Fail,         ///< The operation reports failure (opens, allocations).
  TruncateTail, ///< Keep only the first Param bytes of the buffer.
  FlipByte,     ///< XOR the byte at offset (Param % size) with 0xFF.
};

/// Process-wide fault-injection registry. All methods are thread-safe.
class FaultInjector {
public:
  /// The process-wide instance. On construction, arms chaos mode when
  /// STRUCTSLIM_FAULT_SEED is set in the environment.
  static FaultInjector &instance();

  /// Disarms every fault (chaos mode included) and clears all hit
  /// counters.
  void reset();

  /// Arms one fault: the \p HitIndex-th (0-based, counted from the
  /// last reset) hit of \p Site performs \p Action. \p Param is the
  /// byte count kept by TruncateTail and the offset for FlipByte.
  void arm(FaultSite Site, FaultAction Action, uint64_t HitIndex,
           uint64_t Param = 0);

  /// Arms chaos mode: each hit of any site draws from an Rng seeded by
  /// \p Seed and faults with probability 1/\p Period (buffer sites
  /// pick truncate-or-flip with a random parameter, operation sites
  /// fail). Reproducible for a fixed seed and hit sequence.
  void armChaos(uint64_t Seed, uint64_t Period = 8);

  /// Operation sites: records a hit of \p Site; true when the armed
  /// fault (or a chaos draw) says this operation must fail.
  bool shouldFail(FaultSite Site);

  /// Buffer sites: records a hit of \p Site and mutates \p Bytes in
  /// place per the armed fault; true when a fault was applied.
  bool mutate(FaultSite Site, std::string &Bytes);

  /// Hits of \p Site since the last reset.
  uint64_t hitCount(FaultSite Site) const;

  /// True while any fault (or chaos mode) is armed. Components whose
  /// parallel schedules would scramble the observable hit order — the
  /// streaming merge loader issues reads out of order — check this and
  /// fall back to their serial path so armed hit indices keep meaning
  /// "the Nth operation in program order".
  bool anyArmed() const { return AnyArmed.load(std::memory_order_relaxed); }

private:
  FaultInjector();

  struct ArmedFault {
    FaultAction Action = FaultAction::Fail;
    uint64_t HitIndex = 0;
    uint64_t Param = 0;
  };

  /// Consumes one hit of \p Site; true (with the fault in \p Out) when
  /// a deterministic or chaos fault fires on this hit.
  bool consumeHit(FaultSite Site, bool BufferSite, ArmedFault &Out);

  mutable std::mutex Mu;
  std::atomic<bool> AnyArmed{false};
  std::vector<ArmedFault> Faults[NumFaultSites];
  uint64_t Hits[NumFaultSites] = {};
  bool ChaosArmed = false;
  uint64_t ChaosPeriod = 8;
  Rng ChaosRng;
};

} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_FAULTINJECTION_H
