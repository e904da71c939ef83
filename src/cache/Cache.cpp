//===- cache/Cache.cpp ----------------------------------------*- C++ -*-===//

#include "cache/Cache.h"

#include "support/Error.h"

#include <type_traits>
#include <vector>

using namespace structslim;
using namespace structslim::cache;

// The MRU filter holds pointers into Storage: a copy would probe the
// original's blocks, and a moved-from cache would probe the new owner's.
static_assert(!std::is_copy_constructible_v<SetAssocCache> &&
                  !std::is_move_constructible_v<SetAssocCache>,
              "SetAssocCache must be neither copied nor moved");

SetAssocCache::SetAssocCache(const CacheConfig &Config) : Config(Config) {
  if (Config.LineSize == 0 || (Config.LineSize & (Config.LineSize - 1)))
    fatalError("cache line size must be a power of two");
  if (Config.Assoc == 0)
    fatalError("cache associativity must be at least 1");
  uint64_t Lines = Config.SizeBytes / Config.LineSize;
  if (Lines == 0 || Lines % Config.Assoc != 0)
    fatalError("cache size must be a multiple of assoc * line size");
  NumSets = Lines / Config.Assoc;
  SetMask = (NumSets & (NumSets - 1)) == 0 ? NumSets - 1 : 0;
  AgesOffset = size_t{Config.Assoc} * sizeof(uint64_t);
  BlockBytes = (AgesOffset + size_t{Config.Assoc} * sizeof(uint32_t) + 7) &
               ~size_t{7};
  // One zero fill: an all-zero block is a set of invalid ways (age 0).
  // calloc implicitly creates the tag and age arrays each block holds;
  // each region is only ever accessed as its one type.
  constexpr size_t Align = 64;
  Storage.reset(std::calloc(NumSets * BlockBytes + Align - 1, 1));
  if (!Storage)
    fatalError("out of memory allocating cache '" + Config.Name + "'");
  auto Raw = reinterpret_cast<uintptr_t>(Storage.get());
  Blocks = reinterpret_cast<unsigned char *>((Raw + Align - 1) & ~(Align - 1));
  MruTagSlot = tagsOf(Blocks);
  MruAgeSlot = agesOf(Blocks);
}

bool SetAssocCache::contains(uint64_t LineAddr) const {
  unsigned char *Block = blockOf(LineAddr);
  const uint64_t *Tags = tagsOf(Block);
  const uint32_t *Ages = agesOf(Block);
  for (unsigned W = 0; W != Config.Assoc; ++W)
    if (Tags[W] == LineAddr && Ages[W] != 0)
      return true;
  return false;
}

void SetAssocCache::renormalizeAges() {
  unsigned Assoc = Config.Assoc;
  std::vector<uint32_t> Old(Assoc);
  for (uint64_t S = 0; S != NumSets; ++S) {
    uint32_t *Ages = agesOf(Blocks + S * BlockBytes);
    Old.assign(Ages, Ages + Assoc);
    // Valid ages within a set are distinct, so a way's rank is one plus
    // the number of valid ways touched before it.
    for (unsigned W = 0; W != Assoc; ++W) {
      if (Old[W] == 0)
        continue;
      uint32_t Rank = 1;
      for (unsigned V = 0; V != Assoc; ++V)
        Rank += Old[V] != 0 && Old[V] < Old[W];
      Ages[W] = Rank;
    }
  }
  Tick = Assoc;
}
