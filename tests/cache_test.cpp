//===- tests/cache_test.cpp - Cache & hierarchy tests ----------*- C++ -*-===//

#include "cache/Cache.h"
#include "cache/Hierarchy.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

using namespace structslim;
using namespace structslim::cache;

namespace {

/// A tiny 2-set, 2-way cache for exact LRU checks: 4 lines of 64 B.
CacheConfig tinyConfig() {
  CacheConfig C;
  C.Name = "tiny";
  C.SizeBytes = 4 * 64;
  C.Assoc = 2;
  C.LineSize = 64;
  C.HitLatency = 4;
  return C;
}

} // namespace

TEST(SetAssocCache, ColdMissThenHit) {
  SetAssocCache C(tinyConfig());
  EXPECT_FALSE(C.access(10));
  EXPECT_TRUE(C.access(10));
  EXPECT_EQ(C.getMisses(), 1u);
  EXPECT_EQ(C.getHits(), 1u);
}

TEST(SetAssocCache, LruEviction) {
  SetAssocCache C(tinyConfig()); // 2 sets: lines map by line % 2.
  // Lines 0, 2, 4 all map to set 0 (even).
  C.access(0);
  C.access(2);
  C.access(4); // Evicts 0 (LRU).
  EXPECT_FALSE(C.access(0));
  // Now 2 was evicted (it became LRU after 4 and 0 installed).
  EXPECT_FALSE(C.access(2));
}

TEST(SetAssocCache, LruTouchRefreshes) {
  SetAssocCache C(tinyConfig());
  C.access(0);
  C.access(2);
  C.access(0); // Refresh 0; 2 becomes LRU.
  C.access(4); // Evicts 2.
  EXPECT_TRUE(C.access(0));
  EXPECT_FALSE(C.access(2));
}

TEST(SetAssocCache, SetsAreIndependent) {
  SetAssocCache C(tinyConfig());
  C.access(0); // Set 0.
  C.access(1); // Set 1.
  C.access(3); // Set 1.
  EXPECT_TRUE(C.access(0)); // Untouched by set-1 traffic.
}

TEST(SetAssocCache, NonPowerOfTwoSets) {
  // 20 MB, 16-way, 64 B lines: 20480 sets (the paper's L3 geometry).
  CacheConfig C;
  C.SizeBytes = 20 * 1024 * 1024;
  C.Assoc = 16;
  C.LineSize = 64;
  SetAssocCache Cache(C);
  for (uint64_t L = 0; L != 1000; ++L)
    Cache.access(L);
  for (uint64_t L = 0; L != 1000; ++L)
    EXPECT_TRUE(Cache.access(L)) << "line " << L;
}

TEST(SetAssocCache, WorkingSetLargerThanCacheThrashes) {
  SetAssocCache C(tinyConfig()); // 4 lines total.
  for (int Round = 0; Round != 3; ++Round)
    for (uint64_t L = 0; L != 8; ++L)
      C.access(L);
  // Cyclic sweep over 2x capacity with LRU: every access misses.
  EXPECT_EQ(C.getMisses(), 24u);
}

TEST(SetAssocCache, PrefetchInstallDoesNotCountDemand) {
  SetAssocCache C(tinyConfig());
  C.installPrefetch(6);
  EXPECT_EQ(C.getAccesses(), 0u);
  EXPECT_EQ(C.getPrefetchFills(), 1u);
  EXPECT_TRUE(C.access(6)); // Hit thanks to the prefetch.
}

TEST(SetAssocCache, ContainsIsSideEffectFree) {
  SetAssocCache C(tinyConfig());
  C.access(0);
  C.access(2);
  EXPECT_TRUE(C.contains(0));
  EXPECT_TRUE(C.contains(2));
  EXPECT_FALSE(C.contains(4));
  // contains() must not refresh LRU: 0 is still the eviction victim.
  C.access(4);
  EXPECT_FALSE(C.contains(0));
}

TEST(SetAssocCache, BadGeometryAborts) {
  CacheConfig C;
  C.SizeBytes = 100; // Not a multiple of assoc * line.
  C.Assoc = 8;
  C.LineSize = 64;
  EXPECT_DEATH(SetAssocCache{C}, "multiple of assoc");
  CacheConfig C2;
  C2.LineSize = 48;
  EXPECT_DEATH(SetAssocCache{C2}, "power of two");
}

TEST(SetAssocCache, ZeroAssocAborts) {
  // Used to divide by zero computing the set count (SIGFPE).
  CacheConfig C;
  C.Assoc = 0;
  EXPECT_DEATH(SetAssocCache{C}, "associativity must be at least 1");
}

TEST(SetAssocCache, AssocAboveSixteenAborts) {
  // The recency order is one nibble per way in a 64-bit word.
  CacheConfig C;
  C.SizeBytes = 17 * 64 * 4;
  C.Assoc = 17;
  C.LineSize = 64;
  EXPECT_DEATH(SetAssocCache{C}, "associativity must be at most 16");
}

TEST(SetAssocCache, OneByteLinesAbort) {
  // Tags are LineAddr + 1; with 1-byte lines a line address can be
  // UINT64_MAX and its tag would wrap to 0, the invalid tag.
  CacheConfig C;
  C.SizeBytes = 1024;
  C.Assoc = 8;
  C.LineSize = 1;
  EXPECT_DEATH(SetAssocCache{C}, "line size must be at least 2 bytes");
}

TEST(Hierarchy, LineSizeBelowL1MismatchAborts) {
  // L2 and L3 are probed with L1 line addresses; any other line size
  // would silently mis-simulate.
  HierarchyConfig Cfg;
  Cfg.L2.LineSize = 128;
  EXPECT_DEATH(MemoryHierarchy{Cfg}, "line sizes must equal");
  HierarchyConfig Cfg3;
  Cfg3.L3.LineSize = 32;
  EXPECT_DEATH(MemoryHierarchy{Cfg3}, "line sizes must equal");
  // A shared L3 is checked too, whatever HierarchyConfig::L3 says.
  HierarchyConfig Shared;
  CacheConfig Wide = Shared.L3;
  Wide.LineSize = 128;
  SetAssocCache SharedL3(Wide);
  EXPECT_DEATH(MemoryHierarchy(Shared, &SharedL3), "line sizes must equal");
}

// --- MemoryHierarchy --------------------------------------------------------

namespace {

HierarchyConfig smallHierarchy() {
  HierarchyConfig H;
  H.L1 = {"L1", 1024, 2, 64, 4};
  H.L2 = {"L2", 4096, 4, 64, 12};
  H.L3 = {"L3", 16384, 8, 64, 40};
  H.DramLatency = 200;
  return H;
}

} // namespace

TEST(Hierarchy, LevelsAndLatencies) {
  MemoryHierarchy H(smallHierarchy());
  AccessResult First = H.access(0, 8, false, 1);
  EXPECT_EQ(First.Served, MemLevel::Dram);
  EXPECT_EQ(First.Latency, 200u);
  AccessResult Second = H.access(0, 8, false, 1);
  EXPECT_EQ(Second.Served, MemLevel::L1);
  EXPECT_EQ(Second.Latency, 4u);
}

TEST(Hierarchy, L2ServesAfterL1Eviction) {
  MemoryHierarchy H(smallHierarchy());
  H.access(0, 8, false, 1);
  // Evict line 0 from L1 (16 lines) but not L2 (64 lines): touch 16
  // conflicting-ish lines.
  for (uint64_t L = 1; L <= 32; ++L)
    H.access(L * 64, 8, false, 1);
  AccessResult R = H.access(0, 8, false, 1);
  EXPECT_EQ(R.Served, MemLevel::L2);
  EXPECT_EQ(R.Latency, 12u);
}

TEST(Hierarchy, LineStraddleTakesSlowerLine) {
  MemoryHierarchy H(smallHierarchy());
  H.access(0, 8, false, 1); // Line 0 cached everywhere.
  // 8 bytes at offset 60: touches lines 0 (hit) and 1 (cold -> DRAM).
  AccessResult R = H.access(60, 8, false, 2);
  EXPECT_EQ(R.Served, MemLevel::Dram);
  EXPECT_EQ(R.Latency, 200u);
}

TEST(Hierarchy, SharedL3AcrossCores) {
  HierarchyConfig Cfg = smallHierarchy();
  SetAssocCache SharedL3(Cfg.L3);
  MemoryHierarchy Core0(Cfg, &SharedL3);
  MemoryHierarchy Core1(Cfg, &SharedL3);
  Core0.access(0, 8, false, 1); // Fills the shared L3.
  AccessResult R = Core1.access(0, 8, false, 1);
  EXPECT_EQ(R.Served, MemLevel::L3); // Private L1/L2 cold, L3 warm.
  EXPECT_EQ(SharedL3.getAccesses(), 2u);
}

TEST(Hierarchy, MissCountersPerLevel) {
  MemoryHierarchy H(smallHierarchy());
  H.access(0, 8, false, 1);
  H.access(0, 8, false, 1);
  EXPECT_EQ(H.l1().getMisses(), 1u);
  EXPECT_EQ(H.l1().getHits(), 1u);
  EXPECT_EQ(H.l2().getMisses(), 1u);
  EXPECT_EQ(H.l3().getMisses(), 1u);
  H.resetCounters();
  EXPECT_EQ(H.l1().getAccesses(), 0u);
}

TEST(Hierarchy, MemLevelNames) {
  EXPECT_STREQ(memLevelName(MemLevel::L1), "L1");
  EXPECT_STREQ(memLevelName(MemLevel::L2), "L2");
  EXPECT_STREQ(memLevelName(MemLevel::L3), "L3");
  EXPECT_STREQ(memLevelName(MemLevel::Dram), "DRAM");
}

// --- StridePrefetcher --------------------------------------------------------

TEST(Prefetcher, DetectsConstantStride) {
  HierarchyConfig Cfg = smallHierarchy();
  Cfg.EnablePrefetcher = true;
  Cfg.PrefetchDegree = 2;
  MemoryHierarchy H(Cfg);
  // Stride-64 stream from one IP: after warmup, upcoming lines are
  // prefetched into L2.
  for (uint64_t I = 0; I != 8; ++I)
    H.access(I * 64, 8, false, /*Ip=*/7);
  EXPECT_GT(H.getPrefetcher().getIssued(), 0u);
  // The next line should now be at least L2-resident.
  AccessResult R = H.access(8 * 64, 8, false, 7);
  EXPECT_NE(R.Served, MemLevel::Dram);
}

TEST(Prefetcher, IndexUsesFullHashWidth) {
  // Regression: the table index used to be (hash >> 56) & (N-1), which
  // keeps only the top 8 hash bits — any table beyond 256 entries left
  // the extra slots unreachable. The index must come from the top
  // log2(N) bits of the full-width hash.
  std::set<size_t> Used;
  for (uint64_t Ip = 0; Ip != 8192; ++Ip)
    Used.insert(StridePrefetcher::indexFor(0x400000 + Ip * 4, 4096));
  EXPECT_GT(Used.size(), 256u);
  for (size_t Slot : Used)
    EXPECT_LT(Slot, 4096u);

  // The default 256-entry geometry keeps its historical mapping (the
  // top-8-bit index), so existing profiles stay bit-identical.
  for (uint64_t Ip : {0x400000ull, 0x400004ull, 0x7fffffull, 1ull})
    EXPECT_EQ(StridePrefetcher::indexFor(Ip, 256),
              (Ip * 0x9e3779b97f4a7c15ULL) >> 56);

  // Degenerate single-entry table maps everything to slot 0.
  EXPECT_EQ(StridePrefetcher::indexFor(0x1234, 1), 0u);
}

TEST(Prefetcher, TableSizeConfigurableAndRoundedToPowerOfTwo) {
  StridePrefetcher P(1024);
  EXPECT_EQ(P.getNumEntries(), 1024u);
  StridePrefetcher Rounded(300);
  EXPECT_EQ(Rounded.getNumEntries(), 512u);
  HierarchyConfig Cfg = smallHierarchy();
  Cfg.EnablePrefetcher = true;
  Cfg.PrefetchTableEntries = 2048;
  MemoryHierarchy H(Cfg);
  EXPECT_EQ(H.getPrefetcher().getNumEntries(), 2048u);
  // Larger tables still detect streams.
  for (uint64_t I = 0; I != 8; ++I)
    H.access(I * 64, 8, false, /*Ip=*/7);
  EXPECT_GT(H.getPrefetcher().getIssued(), 0u);
}

TEST(Prefetcher, NoIssueForRandomPattern) {
  HierarchyConfig Cfg = smallHierarchy();
  Cfg.EnablePrefetcher = true;
  MemoryHierarchy H(Cfg);
  Rng R(3);
  for (int I = 0; I != 64; ++I)
    H.access(R.nextBelow(1 << 20), 8, false, 7);
  // A couple of accidental matches are possible, but not a stream.
  EXPECT_LT(H.getPrefetcher().getIssued(), 8u);
}

TEST(Prefetcher, DisabledByDefault) {
  MemoryHierarchy H(smallHierarchy());
  for (uint64_t I = 0; I != 16; ++I)
    H.access(I * 64, 8, false, 7);
  EXPECT_EQ(H.getPrefetcher().getIssued(), 0u);
  EXPECT_EQ(H.l2().getPrefetchFills(), 0u);
}

TEST(Prefetcher, NonUnitStrideRecognized) {
  // The paper notes hardware prefetchers recognize non-unit strides;
  // ours does too (per-IP stride table).
  HierarchyConfig Cfg = smallHierarchy();
  Cfg.EnablePrefetcher = true;
  MemoryHierarchy H(Cfg);
  for (uint64_t I = 0; I != 8; ++I)
    H.access(I * 256, 8, false, 9);
  EXPECT_GT(H.getPrefetcher().getIssued(), 0u);
}

// --- SoA cache vs the reference shift-based LRU model. -----------------

namespace {

/// The pre-SoA cache: per set a physically ordered way array, front =
/// most recent; hits move to front, misses evict the back.
class ShiftLruReference {
public:
  explicit ShiftLruReference(const cache::CacheConfig &Config)
      : Assoc(Config.Assoc),
        NumSets(Config.SizeBytes / Config.LineSize / Config.Assoc),
        Sets(NumSets, std::vector<Way>(Config.Assoc)) {}

  bool access(uint64_t LineAddr) {
    std::vector<Way> &S = Sets[LineAddr % NumSets];
    for (size_t W = 0; W != S.size(); ++W) {
      if (S[W].Valid && S[W].Tag == LineAddr) {
        Way Hit = S[W];
        S.erase(S.begin() + W);
        S.insert(S.begin(), Hit);
        ++Hits;
        return true;
      }
    }
    S.pop_back();
    S.insert(S.begin(), Way{LineAddr, true});
    ++Misses;
    return false;
  }

  void installPrefetch(uint64_t LineAddr) {
    std::vector<Way> &S = Sets[LineAddr % NumSets];
    for (size_t W = 0; W != S.size(); ++W) {
      if (S[W].Valid && S[W].Tag == LineAddr) {
        Way Hit = S[W];
        S.erase(S.begin() + W);
        S.insert(S.begin(), Hit);
        return;
      }
    }
    S.pop_back();
    S.insert(S.begin(), Way{LineAddr, true});
  }

  uint64_t getHits() const { return Hits; }
  uint64_t getMisses() const { return Misses; }

private:
  struct Way {
    uint64_t Tag = 0;
    bool Valid = false;
  };
  unsigned Assoc;
  uint64_t NumSets;
  std::vector<std::vector<Way>> Sets;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Drives \p Config's cache and the reference with one random trace.
void compareOnRandomTrace(const cache::CacheConfig &Config, uint64_t Seed,
                          size_t Accesses, uint64_t AddressSpaceLines) {
  cache::SetAssocCache Soa(Config);
  ShiftLruReference Ref(Config);
  Rng R(Seed);
  for (size_t I = 0; I != Accesses; ++I) {
    uint64_t Line = R.nextBelow(AddressSpaceLines);
    if (R.nextBelow(10) == 0) {
      // ~10% prefetch installs interleaved with demand traffic.
      Soa.installPrefetch(Line);
      Ref.installPrefetch(Line);
    } else {
      bool SoaHit = Soa.access(Line);
      bool RefHit = Ref.access(Line);
      ASSERT_EQ(SoaHit, RefHit)
          << Config.Name << ": access " << I << " line " << Line;
    }
  }
  EXPECT_EQ(Soa.getHits(), Ref.getHits());
  EXPECT_EQ(Soa.getMisses(), Ref.getMisses());
}

} // namespace

TEST(SoaCacheEquivalence, L1GeometryRandomTraces) {
  cache::CacheConfig C{"L1d", 32 * 1024, 8, 64, 4};
  // Working sets below, around, and far above capacity.
  compareOnRandomTrace(C, 1, 200000, 256);
  compareOnRandomTrace(C, 2, 200000, 4096);
  compareOnRandomTrace(C, 3, 200000, 1 << 20);
}

TEST(SoaCacheEquivalence, TinyCacheMaximalEvictionPressure) {
  cache::CacheConfig C{"tiny", 4 * 2 * 64, 2, 64, 1};
  compareOnRandomTrace(C, 4, 100000, 64);
}

TEST(SoaCacheEquivalence, NonPowerOfTwoSets) {
  // 5 sets of 4 ways: exercises the modulo set indexing.
  cache::CacheConfig C{"npot", 5 * 4 * 64, 4, 64, 1};
  compareOnRandomTrace(C, 5, 100000, 160);
}

TEST(SoaCacheEquivalence, DirectMappedAndHighAssoc) {
  // One way: the order word holds a single nibble. Three ways: nibbles
  // 3..15 are unused (0xF); 7 sets also take the modulo index. Sixteen
  // ways: every nibble is used, and a hit at position 15 moves the
  // whole word (footprints just above 16 lines per set make those hits
  // common).
  cache::CacheConfig Direct{"direct", 64 * 64, 1, 64, 1};
  compareOnRandomTrace(Direct, 6, 50000, 512);
  cache::CacheConfig Odd{"odd", 7 * 3 * 64, 3, 64, 1};
  compareOnRandomTrace(Odd, 21, 100000, 64);
  compareOnRandomTrace(Odd, 22, 100000, 24);
  cache::CacheConfig Wide{"wide", 16 * 64, 16, 64, 1};
  compareOnRandomTrace(Wide, 7, 50000, 64);
  compareOnRandomTrace(Wide, 23, 100000, 17);
  cache::CacheConfig Wide2{"wide2", 2 * 16 * 64, 16, 64, 1};
  compareOnRandomTrace(Wide2, 24, 100000, 34);
}

TEST(SoaCacheEquivalence, PaperL3GeometryWithPrefetches) {
  // 20 MB, 16-way: 20,480 sets, not a power of two (modulo indexing),
  // 136-byte per-set blocks. Footprints of about 1.6x and 6.4x the
  // capacity; ~10% of the trace is prefetch installs.
  cache::CacheConfig C{"L3", 20 * 1024 * 1024, 16, 64, 40};
  compareOnRandomTrace(C, 8, 1000000, 1 << 19);
  compareOnRandomTrace(C, 9, 400000, 1 << 21);
}

TEST(SoaCacheEquivalence, PrefetchIntoTheMruLinesSetClearsTheFilter) {
  // access(X) leaves X as the MRU filter's line; a prefetch install
  // into X's set can evict it, and the next access(X) must then miss
  // as the reference does, not take the filter's repeat-hit path.
  auto Replay = [](const cache::CacheConfig &C,
                   const std::vector<uint64_t> &Prefetches) {
    cache::SetAssocCache Soa(C);
    ShiftLruReference Ref(C);
    const uint64_t X = 5;
    EXPECT_EQ(Soa.access(X), Ref.access(X));
    for (uint64_t Y : Prefetches) {
      Soa.installPrefetch(Y);
      Ref.installPrefetch(Y);
    }
    EXPECT_EQ(Soa.access(X), Ref.access(X)) << C.Name;
    EXPECT_EQ(Soa.getHits(), Ref.getHits()) << C.Name;
    EXPECT_EQ(Soa.getMisses(), Ref.getMisses()) << C.Name;
  };
  // Direct-mapped, 4 sets: line 9 shares X's set and evicts it.
  Replay({"direct", 4 * 64, 1, 64, 1}, {9});
  // Two-way, 4 sets: lines 9 and 13 both land in X's set; the second
  // install evicts X.
  Replay({"2way", 8 * 64, 2, 64, 1}, {9, 13});
  // Two-way with one install: X is only demoted and still hits.
  Replay({"2way", 8 * 64, 2, 64, 1}, {9});
}

TEST(SoaCacheEquivalence, SharedL3UnderFourRoundRobinHierarchies) {
  // Four cores share one paper-geometry L3 and take turns in 64-access
  // slices, as the runtime interleaves them. Every access that reaches
  // the L3 (served by the L3 or by DRAM) is replayed, in order, on the
  // reference; its hit/miss must match what the hierarchy reported.
  HierarchyConfig Cfg;
  SetAssocCache SharedL3(Cfg.L3);
  std::vector<std::unique_ptr<MemoryHierarchy>> Cores;
  std::vector<Rng> Traces;
  std::vector<uint64_t> Cursor;
  for (unsigned Core = 0; Core != 4; ++Core) {
    Cores.push_back(std::make_unique<MemoryHierarchy>(Cfg, &SharedL3));
    Traces.emplace_back(100 + Core);
    Cursor.push_back((uint64_t{Core} + 1) << 30);
  }
  ShiftLruReference Ref(Cfg.L3);
  const uint64_t FootprintLines = 1 << 19; // 32 MB of shared data.
  size_t Replayed = 0;
  for (unsigned Slice = 0; Slice != 4000; ++Slice) {
    unsigned Core = Slice % 4;
    Rng &R = Traces[Core];
    for (unsigned I = 0; I != 64; ++I) {
      // Half private sequential 8-byte walk, half random shared lines.
      uint64_t Addr;
      if (R.nextBelow(2) == 0) {
        Addr = Cursor[Core];
        Cursor[Core] += 8;
      } else {
        Addr = R.nextBelow(FootprintLines) * 64 + R.nextBelow(8) * 8;
      }
      AccessResult Got = Cores[Core]->access(Addr, 8, false, 1);
      if (Got.Served != MemLevel::L3 && Got.Served != MemLevel::Dram)
        continue;
      bool RefHit = Ref.access(Addr / 64);
      ASSERT_EQ(Got.Served == MemLevel::L3, RefHit)
          << "slice " << Slice << " access " << I << " addr " << Addr;
      ++Replayed;
    }
  }
  EXPECT_GT(Replayed, 100000u);
  EXPECT_EQ(SharedL3.getHits(), Ref.getHits());
  EXPECT_EQ(SharedL3.getMisses(), Ref.getMisses());
  EXPECT_GT(Ref.getHits(), 0u);
  EXPECT_GT(Ref.getMisses(), 0u);
}
