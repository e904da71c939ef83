//===- cache/Cache.cpp ----------------------------------------*- C++ -*-===//

#include "cache/Cache.h"

#include "support/Error.h"

#include <type_traits>

using namespace structslim;
using namespace structslim::cache;

// A shared L3 is referred to by address from every core's hierarchy.
static_assert(!std::is_copy_constructible_v<SetAssocCache> &&
                  !std::is_move_constructible_v<SetAssocCache>,
              "SetAssocCache must be neither copied nor moved");

SetAssocCache::SetAssocCache(const CacheConfig &Config) : Config(Config) {
  if (Config.LineSize == 0 || (Config.LineSize & (Config.LineSize - 1)))
    fatalError("cache line size must be a power of two");
  // Tags are LineAddr + 1, which must not wrap.
  if (Config.LineSize < 2)
    fatalError("cache line size must be at least 2 bytes");
  if (Config.Assoc == 0)
    fatalError("cache associativity must be at least 1");
  // The recency order is one nibble per way in a 64-bit word.
  if (Config.Assoc > 16)
    fatalError("cache associativity must be at most 16");
  uint64_t Lines = Config.SizeBytes / Config.LineSize;
  if (Lines == 0 || Lines % Config.Assoc != 0)
    fatalError("cache size must be a multiple of assoc * line size");
  NumSets = Lines / Config.Assoc;
  SetMask = (NumSets & (NumSets - 1)) == 0 ? NumSets - 1 : 0;
  Identity = ~0ull;
  for (unsigned P = 0; P != Config.Assoc; ++P)
    Identity ^= uint64_t{0xF ^ P} << (4 * P);
  BackShift = 4 * (Config.Assoc - 1);
  // One zero fill: an all-zero block is the identity order over
  // invalid ways (tag 0). calloc implicitly creates the uint64_t array.
  constexpr size_t Align = 64;
  size_t Bytes = NumSets * (size_t{Config.Assoc} + 1) * sizeof(uint64_t);
  Storage.reset(std::calloc(Bytes + Align - 1, 1));
  if (!Storage)
    fatalError("out of memory allocating cache '" + Config.Name + "'");
  auto Raw = reinterpret_cast<uintptr_t>(Storage.get());
  Blocks = reinterpret_cast<uint64_t *>((Raw + Align - 1) & ~(Align - 1));
}

bool SetAssocCache::contains(uint64_t LineAddr) const {
  const uint64_t *Block = blockOf(LineAddr);
  for (unsigned W = 0; W != Config.Assoc; ++W)
    if (Block[1 + W] == LineAddr + 1)
      return true;
  return false;
}
