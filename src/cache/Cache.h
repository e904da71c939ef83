//===- cache/Cache.h - Set-associative cache model --------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative, LRU, allocate-on-miss cache. Instances model the
/// private L1/L2 and the shared L3 of the paper's Xeon E5-4650L testbed
/// (32 KB L1d, 256 KB L2 private; 20 MB L3 shared). Hit/miss counters
/// double as the hardware event counters the paper reads for Table 4.
///
/// Storage is structure-of-arrays: tags and LRU ages live in flat
/// parallel vectors indexed by set * assoc + way, and recency is an age
/// counter per way (a way's age is the set's tick at its last touch)
/// instead of a physically ordered array. Touching a line is then one
/// store instead of an O(assoc) shift of Way records, while eviction
/// order — least recent first, invalid ways before any valid way — is
/// exactly the order the shift-based model maintained, so hit/miss
/// sequences are bit-identical to it.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CACHE_CACHE_H
#define STRUCTSLIM_CACHE_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

namespace structslim {
namespace cache {

/// Geometry and timing of one cache level.
struct CacheConfig {
  std::string Name = "cache";
  uint64_t SizeBytes = 32 * 1024;
  unsigned Assoc = 8;
  unsigned LineSize = 64;
  unsigned HitLatency = 4; ///< Cycles when this level serves the access.
};

/// One cache level. Addresses are pre-shifted line addresses.
class SetAssocCache {
public:
  explicit SetAssocCache(const CacheConfig &Config);

  /// Looks up \p LineAddr; on miss, installs it (evicting LRU).
  /// Returns true on hit. Counts the access.
  bool access(uint64_t LineAddr) {
    // MRU memoization: spatially local streams touch the same line
    // back to back, and a line occupies exactly one way until evicted,
    // so a revalidated (tag still matches, way still valid) MRU hit
    // performs the identical state mutation the scan would — one age
    // store — without the O(assoc) tag scan.
    if (LineAddr == MruTag && Ages[MruWay] != 0 && Tags[MruWay] == LineAddr) {
      Ages[MruWay] = ++SetTick[MruWay / Config.Assoc];
      ++Hits;
      return true;
    }
    size_t Base = setIndex(LineAddr) * Config.Assoc;
    uint64_t Tick = ++SetTick[Base / Config.Assoc];
    for (unsigned W = 0; W != Config.Assoc; ++W) {
      if (Ages[Base + W] != 0 && Tags[Base + W] == LineAddr) {
        Ages[Base + W] = Tick;
        MruTag = LineAddr;
        MruWay = Base + W;
        ++Hits;
        return true;
      }
    }
    ++Misses;
    MruTag = LineAddr;
    MruWay = installAt(Base, LineAddr, Tick);
    return false;
  }

  /// Installs \p LineAddr without counting a demand access (prefetch
  /// fill). No-op when already present (refreshes LRU).
  void installPrefetch(uint64_t LineAddr) {
    size_t Base = setIndex(LineAddr) * Config.Assoc;
    uint64_t Tick = ++SetTick[Base / Config.Assoc];
    for (unsigned W = 0; W != Config.Assoc; ++W) {
      if (Ages[Base + W] != 0 && Tags[Base + W] == LineAddr) {
        Ages[Base + W] = Tick;
        return;
      }
    }
    installAt(Base, LineAddr, Tick);
    ++PrefetchFills;
  }

  /// Lookup without side effects.
  bool contains(uint64_t LineAddr) const;

  const CacheConfig &getConfig() const { return Config; }
  uint64_t getHits() const { return Hits; }
  uint64_t getMisses() const { return Misses; }
  uint64_t getAccesses() const { return Hits + Misses; }
  uint64_t getPrefetchFills() const { return PrefetchFills; }
  double getMissRatio() const {
    uint64_t Total = getAccesses();
    return Total == 0 ? 0.0 : static_cast<double>(Misses) / Total;
  }

  void resetCounters() { Hits = Misses = PrefetchFills = 0; }

private:
  // Sets are indexed by modulo so non-power-of-two geometries (like a
  // 20 MB 16-way L3) work; tags store the full line address. The
  // power-of-two geometries (L1, L2) take the mask path — same index,
  // no division in the interpreter's per-access hot path.
  size_t setIndex(uint64_t LineAddr) const {
    return static_cast<size_t>(SetMask != 0 ? (LineAddr & SetMask)
                                            : LineAddr % NumSets);
  }

  /// Evicts the LRU way of the set at \p Base (invalid ways first, as
  /// the shift model's back-of-array position held them) and installs
  /// \p LineAddr with recency \p Tick. Returns the filled way index.
  size_t installAt(size_t Base, uint64_t LineAddr, uint64_t Tick) {
    unsigned Victim = 0;
    uint64_t Oldest = Ages[Base];
    for (unsigned W = 1; W != Config.Assoc; ++W) {
      if (Ages[Base + W] < Oldest) {
        Oldest = Ages[Base + W];
        Victim = W;
      }
    }
    Tags[Base + Victim] = LineAddr;
    Ages[Base + Victim] = Tick;
    return Base + Victim;
  }

  CacheConfig Config;
  uint64_t NumSets;
  uint64_t SetMask; ///< NumSets - 1 when NumSets is a power of two, else 0.
  // Structure-of-arrays way storage, NumSets * Assoc each. Age 0 means
  // the way is invalid; valid ways carry the owning set's tick at their
  // last touch, so larger age == more recently used.
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> Ages;
  std::vector<uint64_t> SetTick; ///< Per-set monotonic touch counter.
  // MRU filter for access(): last line that hit or was installed, and
  // the flat way index holding it. Revalidated on use (staleness after
  // an eviction just falls back to the scan).
  uint64_t MruTag = ~0ull;
  size_t MruWay = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t PrefetchFills = 0;
};

} // namespace cache
} // namespace structslim

#endif // STRUCTSLIM_CACHE_CACHE_H
