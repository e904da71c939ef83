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
/// Way state is laid out by affinity: every probe reads one set's
/// recency order and tags together, so each set owns one contiguous
/// block `[order word][Assoc x uint64 tag]` in a single 64-byte-aligned,
/// zero-filled allocation — 136 B for the 16-way L3, 72 B for an 8-way
/// L1/L2.
///
/// Order word: nibble p holds the way at recency position p (0 is the
/// most recent), so associativity is at most 16. The word is stored
/// XOR an identity constant, so a zeroed word decodes to the order
/// 0, 1, ..., Assoc-1; nibbles at and above Assoc hold 0xF, which
/// matches no way. A hit on way w finds w's position with a SWAR
/// zero-nibble test and moves it to the front with two masks; a miss
/// evicts the way at position Assoc-1 in O(1) and moves it to the
/// front. Nothing promotes a way that was never filled, so invalid
/// ways stay at the back, in identity order, and are evicted before
/// any valid way: the victims are exactly those of the shift-based LRU
/// model this replaces.
///
/// Tags store LineAddr + 1, so tag 0 is an invalid way and a zeroed
/// block is a set of invalid ways. The +1 never wraps because line
/// addresses are byte addresses shifted right by log2(LineSize) >= 1.
///
/// MRU rule: the line access() touched last sits at position 0 of its
/// set, and only an access to that set (which moves the filter) or a
/// prefetch install (which clears it) can change that, so a repeat
/// access is a hit with no state change.
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
/// copyable nor movable: a shared L3 is referred to by address.
class SetAssocCache {
public:
  explicit SetAssocCache(const CacheConfig &Config);
  SetAssocCache(const SetAssocCache &) = delete;
  SetAssocCache &operator=(const SetAssocCache &) = delete;

  /// Looks up \p LineAddr; on miss, installs it (evicting LRU).
  /// Returns true on hit. Counts the access.
  bool access(uint64_t LineAddr) {
    uint64_t Tag = LineAddr + 1;
    if (Tag == MruTag) {
      ++Hits;
      return true;
    }
    MruTag = Tag;
    uint64_t *Block = blockOf(LineAddr);
    if (touch(Block, Tag)) {
      ++Hits;
      return true;
    }
    ++Misses;
    install(Block, Tag);
    return false;
  }

  /// Installs \p LineAddr without counting a demand access (prefetch
  /// fill). No-op when already present (refreshes LRU).
  void installPrefetch(uint64_t LineAddr) {
    MruTag = 0; // May reorder or evict the MRU line's set.
    uint64_t Tag = LineAddr + 1;
    uint64_t *Block = blockOf(LineAddr);
    if (touch(Block, Tag))
      return;
    install(Block, Tag);
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
  static constexpr uint64_t NibbleOnes = 0x1111111111111111ull;
  static constexpr uint64_t NibbleHighs = 0x8888888888888888ull;

  // Sets are indexed by modulo so non-power-of-two geometries (like a
  // 20 MB 16-way L3) work; tags store the full line address. The
  // power-of-two geometries (L1, L2) take the mask path — same index,
  // no division in the interpreter's per-access hot path.
  size_t setIndex(uint64_t LineAddr) const {
    return static_cast<size_t>(SetMask != 0 ? (LineAddr & SetMask)
                                            : LineAddr % NumSets);
  }

  /// A set's block: word 0 is the encoded order, words 1..Assoc the tags.
  uint64_t *blockOf(uint64_t LineAddr) const {
    return Blocks + setIndex(LineAddr) * (size_t{Config.Assoc} + 1);
  }

  /// On a tag match, moves the way to the front and returns true.
  bool touch(uint64_t *Block, uint64_t Tag) {
    for (unsigned W = 0; W != Config.Assoc; ++W) {
      if (Block[1 + W] == Tag) {
        uint64_t Order = Block[0] ^ Identity;
        // W occupies exactly one nibble below Assoc and matches no
        // unused one, so the lowest zero nibble of X is W's position.
        uint64_t X = Order ^ (W * NibbleOnes);
        uint64_t Zero = (X - NibbleOnes) & ~X & NibbleHighs;
        unsigned Shift = static_cast<unsigned>(__builtin_ctzll(Zero)) - 3;
        moveToFront(Block, Order, Shift, W);
        return true;
      }
    }
    return false;
  }

  /// Evicts the way at the back of the order and refills it with \p Tag.
  void install(uint64_t *Block, uint64_t Tag) {
    uint64_t Order = Block[0] ^ Identity;
    unsigned Victim = static_cast<unsigned>(Order >> BackShift) & 0xF;
    Block[1 + Victim] = Tag;
    moveToFront(Block, Order, BackShift, Victim);
  }

  /// Moves way \p W from nibble Shift/4 to nibble 0; the ways in front
  /// of it each move back one position.
  void moveToFront(uint64_t *Block, uint64_t Order, unsigned Shift,
                   uint64_t W) {
    uint64_t UpTo = ~0ull >> (60 - Shift); // Nibbles 0..Shift/4.
    Order = (Order & ~UpTo) | ((Order << 4) & UpTo) | W;
    Block[0] = Order ^ Identity;
  }

  struct FreeDeleter {
    void operator()(void *P) const { std::free(P); }
  };

  CacheConfig Config;
  uint64_t NumSets;
  uint64_t SetMask; ///< NumSets - 1 when NumSets is a power of two, else 0.
  uint64_t Identity; ///< Nibble p is p below Assoc, 0xF at and above.
  unsigned BackShift; ///< 4 * (Assoc - 1): the LRU position's nibble.
  std::unique_ptr<void, FreeDeleter> Storage; ///< Owns the allocation.
  uint64_t *Blocks = nullptr; ///< Storage, 64-byte aligned.
  /// MRU filter for access(): the tag of the last line it touched, or
  /// 0 (no line) after a prefetch install.
  uint64_t MruTag = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t PrefetchFills = 0;
};

} // namespace cache
} // namespace structslim

#endif // STRUCTSLIM_CACHE_CACHE_H
