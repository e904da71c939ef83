//===- cache/Cache.cpp ----------------------------------------*- C++ -*-===//

#include "cache/Cache.h"

#include "support/Error.h"

using namespace structslim;
using namespace structslim::cache;

SetAssocCache::SetAssocCache(const CacheConfig &Config) : Config(Config) {
  if (Config.LineSize == 0 || (Config.LineSize & (Config.LineSize - 1)))
    fatalError("cache line size must be a power of two");
  uint64_t Lines = Config.SizeBytes / Config.LineSize;
  if (Lines == 0 || Lines % Config.Assoc != 0)
    fatalError("cache size must be a multiple of assoc * line size");
  NumSets = Lines / Config.Assoc;
  SetMask = (NumSets & (NumSets - 1)) == 0 ? NumSets - 1 : 0;
  Tags.assign(NumSets * Config.Assoc, 0);
  Ages.assign(NumSets * Config.Assoc, 0);
  SetTick.assign(NumSets, 0);
}

bool SetAssocCache::contains(uint64_t LineAddr) const {
  size_t Base = setIndex(LineAddr) * Config.Assoc;
  for (unsigned W = 0; W != Config.Assoc; ++W)
    if (Ages[Base + W] != 0 && Tags[Base + W] == LineAddr)
      return true;
  return false;
}
