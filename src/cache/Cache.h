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
/// Way state is laid out by affinity: every probe reads one set's tags
/// and ages together, so each set owns one contiguous block
/// `[Assoc x uint64 tag][Assoc x uint32 age]` (padded to 8 bytes) in a
/// single 64-byte-aligned, zero-filled allocation — 192 B for the
/// 16-way L3, 96 B for an 8-way L1/L2. Recency is an age per way: a
/// way's age is the cache-wide tick at its last touch, age 0 marks an
/// invalid way, and larger means more recent. Touching a line is one
/// age store instead of an O(assoc) shift of way records, and eviction
/// order — least recent first, invalid ways before any valid way — is
/// exactly the order the shift-based model maintained, so hit/miss
/// sequences are bit-identical to it. One tick serves every set because
/// only the age order within a set matters and a global tick, like a
/// per-set one, only grows. Before the 32-bit tick would wrap,
/// renormalizeAges() ranks each set's valid ways 1..k in age order and
/// restarts the tick at Assoc; the order, and so every victim, is kept.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CACHE_CACHE_H
#define STRUCTSLIM_CACHE_CACHE_H

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

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

/// One cache level. Addresses are pre-shifted line addresses. Neither
/// copyable nor movable: the MRU filter points into the way-state
/// allocation, and a shared L3 is referred to by address.
class SetAssocCache {
public:
  explicit SetAssocCache(const CacheConfig &Config);
  SetAssocCache(const SetAssocCache &) = delete;
  SetAssocCache &operator=(const SetAssocCache &) = delete;

  /// Looks up \p LineAddr; on miss, installs it (evicting LRU).
  /// Returns true on hit. Counts the access.
  bool access(uint64_t LineAddr) {
    // MRU memoization: spatially local streams touch the same line
    // back to back, and a line occupies exactly one way until evicted,
    // so a revalidated (tag still matches, way still valid) MRU hit
    // performs the identical state mutation the scan would — one age
    // store — without the O(assoc) tag scan.
    if (LineAddr == MruTag && *MruTagSlot == LineAddr && *MruAgeSlot != 0) {
      *MruAgeSlot = nextTick();
      ++Hits;
      return true;
    }
    unsigned char *Block = blockOf(LineAddr);
    uint64_t *Tags = tagsOf(Block);
    uint32_t *Ages = agesOf(Block);
    uint32_t Tick = nextTick();
    for (unsigned W = 0; W != Config.Assoc; ++W) {
      if (Tags[W] == LineAddr && Ages[W] != 0) {
        Ages[W] = Tick;
        MruTag = LineAddr;
        MruTagSlot = &Tags[W];
        MruAgeSlot = &Ages[W];
        ++Hits;
        return true;
      }
    }
    ++Misses;
    unsigned W = installAt(Tags, Ages, LineAddr, Tick);
    MruTag = LineAddr;
    MruTagSlot = &Tags[W];
    MruAgeSlot = &Ages[W];
    return false;
  }

  /// Installs \p LineAddr without counting a demand access (prefetch
  /// fill). No-op when already present (refreshes LRU).
  void installPrefetch(uint64_t LineAddr) {
    unsigned char *Block = blockOf(LineAddr);
    uint64_t *Tags = tagsOf(Block);
    uint32_t *Ages = agesOf(Block);
    uint32_t Tick = nextTick();
    for (unsigned W = 0; W != Config.Assoc; ++W) {
      if (Tags[W] == LineAddr && Ages[W] != 0) {
        Ages[W] = Tick;
        return;
      }
    }
    installAt(Tags, Ages, LineAddr, Tick);
    ++PrefetchFills;
  }

  /// Lookup without side effects.
  bool contains(uint64_t LineAddr) const;

  /// Rewrites every set's ages to their ranks — valid ways 1..k in
  /// recency order, invalid ways left at 0 — and restarts the tick at
  /// Assoc. Recency order within each set, and so every later hit,
  /// miss and victim, is unchanged. Runs automatically before the tick
  /// would pass UINT32_MAX; callable at any point.
  void renormalizeAges();

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

  unsigned char *blockOf(uint64_t LineAddr) const {
    return Blocks + setIndex(LineAddr) * BlockBytes;
  }
  static uint64_t *tagsOf(unsigned char *Block) {
    return reinterpret_cast<uint64_t *>(Block);
  }
  uint32_t *agesOf(unsigned char *Block) const {
    return reinterpret_cast<uint32_t *>(Block + AgesOffset);
  }

  uint32_t nextTick() {
    if (Tick == UINT32_MAX) [[unlikely]]
      renormalizeAges();
    return ++Tick;
  }

  /// Evicts the LRU way of the set (invalid ways first, as the shift
  /// model's back-of-array position held them) and installs \p LineAddr
  /// with recency \p Tick. Returns the filled way.
  unsigned installAt(uint64_t *Tags, uint32_t *Ages, uint64_t LineAddr,
                     uint32_t Tick) {
    unsigned Victim = 0;
    uint32_t Oldest = Ages[0];
    for (unsigned W = 1; W != Config.Assoc; ++W) {
      if (Ages[W] < Oldest) {
        Oldest = Ages[W];
        Victim = W;
      }
    }
    Tags[Victim] = LineAddr;
    Ages[Victim] = Tick;
    return Victim;
  }

  struct FreeDeleter {
    void operator()(void *P) const { std::free(P); }
  };

  CacheConfig Config;
  uint64_t NumSets;
  uint64_t SetMask; ///< NumSets - 1 when NumSets is a power of two, else 0.
  size_t BlockBytes; ///< Per-set block: tags, then ages, padded to 8 B.
  size_t AgesOffset; ///< Assoc * 8: where a block's ages start.
  std::unique_ptr<void, FreeDeleter> Storage; ///< Owns the allocation.
  unsigned char *Blocks = nullptr; ///< Storage, 64-byte aligned.
  uint32_t Tick = 0; ///< Cache-wide touch counter; ages are ticks.
  // MRU filter for access(): last line that hit or was installed, and
  // the tag and age slots holding it. Revalidated on use (staleness
  // after an eviction just falls back to the scan).
  uint64_t MruTag = ~0ull;
  uint64_t *MruTagSlot = nullptr;
  uint32_t *MruAgeSlot = nullptr;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t PrefetchFills = 0;
};

} // namespace cache
} // namespace structslim

#endif // STRUCTSLIM_CACHE_CACHE_H
