//===- tests/property_test.cpp - Cross-module property tests ---*- C++ -*-===//
//
// Randomized invariants that hold across the whole pipeline:
//  - the set-associative cache agrees with a brute-force LRU reference,
//  - the analyzer's outputs satisfy their structural invariants on
//    arbitrary random profiles,
//  - the automatic splitter preserves program semantics for every
//    random partition of the structure's fields,
//  - the profile parser never crashes on mutated inputs,
//  - interpreter memory semantics agree with a reference model under
//    random addressing-mode programs,
//  - the predecoded execution engine is bit-identical to the reference
//    interpreter (registers, memory, counters, serialized profiles) on
//    random fused-pattern programs with multithreaded quanta.
//
//===----------------------------------------------------------------------===//

#include "analysis/CodeMap.h"
#include "cache/Cache.h"
#include "core/Analyzer.h"
#include "ir/ProgramBuilder.h"
#include "ir/Verifier.h"
#include "profile/ProfileIO.h"
#include "runtime/Interpreter.h"
#include "runtime/ThreadedRuntime.h"
#include "support/Random.h"
#include "transform/StructSplitter.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>

using namespace structslim;
using structslim::ir::Reg;

// --- Cache vs reference LRU ------------------------------------------------

namespace {

/// Brute-force set-associative LRU model.
class RefCache {
public:
  RefCache(uint64_t Sets, unsigned Assoc) : Sets(Sets), Assoc(Assoc) {}

  bool access(uint64_t Line) {
    auto &Set = Data[Line % Sets];
    for (auto It = Set.begin(); It != Set.end(); ++It)
      if (*It == Line) {
        Set.erase(It);
        Set.push_front(Line);
        return true;
      }
    Set.push_front(Line);
    if (Set.size() > Assoc)
      Set.pop_back();
    return false;
  }

private:
  uint64_t Sets;
  unsigned Assoc;
  std::map<uint64_t, std::deque<uint64_t>> Data;
};

} // namespace

class CacheProperty : public ::testing::TestWithParam<int> {};

TEST_P(CacheProperty, MatchesReferenceLru) {
  Rng R(31337 + GetParam());
  unsigned Assoc = 1u << R.nextBelow(4);          // 1..8 ways.
  uint64_t Lines = Assoc * (1u << R.nextBelow(5)); // x 1..16 sets.
  cache::CacheConfig Cfg;
  Cfg.SizeBytes = Lines * 64;
  Cfg.Assoc = Assoc;
  Cfg.LineSize = 64;
  cache::SetAssocCache C(Cfg);
  RefCache Ref(Lines / Assoc, Assoc);

  // Confined address space provokes conflicts and reuse.
  uint64_t Space = Lines * 3;
  for (int Op = 0; Op != 5000; ++Op) {
    uint64_t Line = R.nextBelow(Space);
    ASSERT_EQ(C.access(Line), Ref.access(Line))
        << "op " << Op << " line " << Line << " assoc " << Assoc
        << " lines " << Lines;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CacheProperty, ::testing::Range(0, 12));

// --- Analyzer invariants ------------------------------------------------------

namespace {

profile::Profile randomProfile(Rng &R) {
  profile::Profile P;
  unsigned NumObjects = 1 + static_cast<unsigned>(R.nextBelow(4));
  for (unsigned O = 0; O != NumObjects; ++O) {
    std::string Name = "obj" + std::to_string(O);
    uint32_t Idx = P.getOrCreateObject(Name);
    P.Objects[Idx].Name = Name;
    P.Objects[Idx].Start = 0x10000 * (O + 1);
    P.Objects[Idx].Size = 1 << 16;
    unsigned NumStreams = 1 + static_cast<unsigned>(R.nextBelow(6));
    for (unsigned S = 0; S != NumStreams; ++S) {
      profile::StreamRecord &Rec =
          P.getOrCreateStream(0x400000 + O * 100 + S, Idx);
      uint64_t Latency = 1 + R.nextBelow(1000);
      Rec.LoopId = static_cast<int32_t>(R.nextBelow(4)) - 1; // -1..2
      Rec.AccessSize = 8;
      Rec.SampleCount += 1 + R.nextBelow(20);
      Rec.LatencySum += Latency;
      Rec.UniqueAddrCount = 1 + R.nextBelow(16);
      Rec.StrideGcd = 8u << R.nextBelow(5); // 8..128.
      Rec.RepAddr = P.Objects[Idx].Start + R.nextBelow(1 << 12);
      Rec.ObjectStart = P.Objects[Idx].Start;
      P.Objects[Idx].SampleCount += Rec.SampleCount;
      P.Objects[Idx].LatencySum += Latency;
      P.TotalSamples += Rec.SampleCount;
      P.TotalLatency += Latency;
    }
  }
  return P;
}

} // namespace

class AnalyzerProperty : public ::testing::TestWithParam<int> {};

TEST_P(AnalyzerProperty, StructuralInvariantsHold) {
  Rng R(4242 + GetParam());
  profile::Profile P = randomProfile(R);
  core::StructSlimAnalyzer Analyzer{core::AnalysisConfig()};
  core::AnalysisResult Result = Analyzer.analyze(P);

  double ShareSum = 0;
  for (const core::ObjectAnalysis &O : Result.Objects) {
    // l_d in (0, 1]; shares over objects cannot exceed 1.
    EXPECT_GT(O.HotShare, 0.0);
    EXPECT_LE(O.HotShare, 1.0 + 1e-12);
    ShareSum += O.HotShare;

    size_t N = O.Fields.size();
    ASSERT_EQ(O.Affinity.size(), N);
    double FieldShare = 0;
    for (size_t I = 0; I != N; ++I) {
      ASSERT_EQ(O.Affinity[I].size(), N);
      EXPECT_NEAR(O.Affinity[I][I], 1.0, 1e-12);
      FieldShare += O.Fields[I].LatencyShare;
      for (size_t J = 0; J != N; ++J) {
        // Symmetric, within [0, 1].
        EXPECT_NEAR(O.Affinity[I][J], O.Affinity[J][I], 1e-12);
        EXPECT_GE(O.Affinity[I][J], 0.0);
        EXPECT_LE(O.Affinity[I][J], 1.0 + 1e-12);
      }
      // Field offsets lie inside the inferred structure.
      if (O.StructSize) {
        EXPECT_LT(O.Fields[I].Offset, O.StructSize);
      }
    }
    EXPECT_LE(FieldShare, 1.0 + 1e-9);

    // Clusters partition the field indices exactly.
    std::vector<unsigned> Seen(N, 0);
    for (const auto &Cluster : O.Clusters)
      for (uint32_t FieldIndex : Cluster) {
        ASSERT_LT(FieldIndex, N);
        ++Seen[FieldIndex];
      }
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(Seen[I], 1u) << "field " << I;

    // Loop shares sum to <= 1 and are sorted descending.
    for (size_t L = 1; L < O.Loops.size(); ++L)
      EXPECT_GE(O.Loops[L - 1].LatencySum, O.Loops[L].LatencySum);
  }
  EXPECT_LE(ShareSum, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Random, AnalyzerProperty, ::testing::Range(0, 20));

// --- Splitter semantic preservation under random plans --------------------

namespace {

struct TokenProgram {
  std::unique_ptr<ir::Program> P;
  uint32_t Token;
};

TokenProgram buildAoSProgram(int64_t N) {
  TokenProgram T;
  T.P = std::make_unique<ir::Program>();
  T.Token = T.P->makeToken("s");
  ir::Function &F = T.P->addFunction("main", 0);
  ir::ProgramBuilder B(*T.P, F);
  Reg Bytes = B.constI(N * 32);
  Reg Base = B.alloc(Bytes, "s", T.Token);
  B.forLoopI(0, N, 1, [&](Reg I) {
    for (int FieldIdx = 0; FieldIdx != 4; ++FieldIdx)
      B.store(B.mulI(I, FieldIdx + 1), Base, I, 32, FieldIdx * 8, 8,
              T.Token);
  });
  Reg Acc = B.constI(0);
  B.forLoopI(0, N, 1, [&](Reg I) {
    for (int FieldIdx = 0; FieldIdx != 4; ++FieldIdx)
      B.accumulate(Acc, B.load(Base, I, 32, FieldIdx * 8, 8, T.Token));
  });
  B.ret(Acc);
  return T;
}

uint64_t runIt(const ir::Program &P) {
  EXPECT_EQ(ir::verify(P), "");
  runtime::Machine M;
  cache::MemoryHierarchy H((cache::HierarchyConfig()));
  runtime::Interpreter I(P, M, H, nullptr, 0);
  return I.run(P.getEntry(), {});
}

} // namespace

class SplitterProperty : public ::testing::TestWithParam<int> {};

TEST_P(SplitterProperty, RandomPartitionsPreserveSemantics) {
  Rng R(777 + GetParam());
  // Random partition of fields {0,8,16,24} into 2..4 clusters.
  unsigned NumClusters = 2 + static_cast<unsigned>(R.nextBelow(3));
  std::vector<std::vector<uint32_t>> Clusters(NumClusters);
  for (uint32_t Offset : {0u, 8u, 16u, 24u})
    Clusters[R.nextBelow(NumClusters)].push_back(Offset);
  core::SplitPlan Plan;
  Plan.ObjectName = "s";
  Plan.OriginalSize = 32;
  for (auto &C : Clusters)
    if (!C.empty())
      Plan.ClusterOffsets.push_back(C);
  if (!Plan.isSplit())
    GTEST_SKIP() << "random partition degenerated to one cluster";

  ir::StructLayout L("s");
  L.addField("a", 8);
  L.addField("b", 8);
  L.addField("c", 8);
  L.addField("d", 8);
  L.finalize();

  TokenProgram T = buildAoSProgram(64 + R.nextBelow(128));
  uint64_t Expect = runIt(*T.P);
  std::string Error;
  auto Split =
      transform::splitArrayOfStructs(*T.P, T.Token, L, Plan, &Error);
  ASSERT_NE(Split, nullptr) << Error;
  EXPECT_EQ(runIt(*Split), Expect);
}

INSTANTIATE_TEST_SUITE_P(Random, SplitterProperty, ::testing::Range(0, 15));

// --- cloneProgram is a deep, faithful copy ---------------------------------
//
// The closed-loop rewriter rests on cloneProgram: the clone must be
// bit-identical in text and ip space, behave identically under the
// profiled runtime down to every serialized profile byte, and share no
// mutable state with the original (mutating one never leaks into the
// other).

namespace {

/// Runs \p P single-threaded with dense sampling; returns the return
/// values plus every per-thread profile, serialized.
std::pair<std::vector<uint64_t>, std::vector<std::string>>
runProfiled(const ir::Program &P) {
  runtime::RunConfig Cfg;
  Cfg.Sampling.Period = 128;
  runtime::ThreadedRuntime RT(Cfg);
  analysis::CodeMap CM(P);
  runtime::ThreadSpec Spec;
  Spec.FunctionId = P.getEntry();
  RT.runPhase(P, &CM, {Spec});
  runtime::RunResult Result = RT.finish();
  std::vector<std::string> Serialized;
  for (const profile::Profile &Prof : Result.Profiles)
    Serialized.push_back(profile::profileToString(Prof));
  return {Result.ReturnValues, std::move(Serialized)};
}

} // namespace

class CloneProperty : public ::testing::TestWithParam<int> {};

TEST_P(CloneProperty, CloneIsDeepAndBitIdentical) {
  Rng R(4242 + GetParam());
  TokenProgram T = buildAoSProgram(32 + R.nextBelow(96));
  auto Clone = transform::cloneProgram(*T.P);

  // Bit-identical structure: text rendering, ip space, tables.
  EXPECT_EQ(Clone->toString(), T.P->toString());
  EXPECT_EQ(Clone->getIpEnd(), T.P->getIpEnd());
  EXPECT_EQ(Clone->getEntry(), T.P->getEntry());
  EXPECT_EQ(Clone->getNumTokens(), T.P->getNumTokens());

  // Identical behavior under the profiled runtime, down to every byte
  // of every serialized per-thread profile.
  auto Original = runProfiled(*T.P);
  auto Cloned = runProfiled(*Clone);
  EXPECT_EQ(Original.first, Cloned.first);
  EXPECT_EQ(Original.second, Cloned.second);

  // No shared mutable state: a random mutation of one program is
  // invisible to the other, in both directions.
  std::string OriginalText = T.P->toString();
  std::string CloneText = Clone->toString();
  ir::Function &MutF = Clone->getFunction(0);
  ir::Instr &Victim = MutF.Blocks.front()->Instrs.front();
  Victim.Line += 1 + static_cast<uint32_t>(R.nextBelow(1 << 20));
  EXPECT_EQ(T.P->toString(), OriginalText);

  ir::Function &OrigF = T.P->getFunction(0);
  OrigF.Blocks.front()->Instrs.front().Line += 1000;
  EXPECT_NE(T.P->toString(), OriginalText);
  EXPECT_NE(Clone->toString(), CloneText); // Our own mutation above...
  std::string MutatedClone = Clone->toString();
  OrigF.Blocks.front()->Instrs.front().Line -= 1000;
  EXPECT_EQ(Clone->toString(), MutatedClone); // ...but not the original's.
}

INSTANTIATE_TEST_SUITE_P(Random, CloneProperty, ::testing::Range(0, 10));

// --- ProfileIO fuzz ------------------------------------------------------------

class ProfileIoFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProfileIoFuzz, MutatedInputNeverCrashes) {
  Rng R(9090 + GetParam());
  // A valid profile to start from.
  profile::Profile P;
  uint32_t Obj = P.getOrCreateObject("arr");
  P.Objects[Obj].Name = "arr";
  profile::StreamRecord &S = P.getOrCreateStream(42, Obj);
  S.SampleCount = 3;
  S.LatencySum = 120;
  P.Contexts.attribute(P.Contexts.intern({1, 2}), 5);
  std::string Text = profile::profileToString(P);

  for (int Trial = 0; Trial != 50; ++Trial) {
    std::string Mutated = Text;
    unsigned Edits = 1 + static_cast<unsigned>(R.nextBelow(8));
    for (unsigned E = 0; E != Edits; ++E) {
      size_t Pos = R.nextBelow(Mutated.size());
      switch (R.nextBelow(3)) {
      case 0:
        Mutated[Pos] = static_cast<char>('0' + R.nextBelow(10));
        break;
      case 1:
        Mutated.erase(Pos, 1 + R.nextBelow(5));
        break;
      case 2:
        Mutated.insert(Pos, 1, static_cast<char>(32 + R.nextBelow(95)));
        break;
      }
      if (Mutated.empty())
        Mutated = "x";
    }
    std::string Error;
    auto Result = profile::profileFromString(Mutated, &Error);
    if (!Result) {
      EXPECT_FALSE(Error.empty());
    }
    // Either outcome is fine; no crash, no uncaught throw.
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ProfileIoFuzz, ::testing::Range(0, 8));

// --- Interpreter memory semantics vs reference -----------------------------

class MemorySemanticsProperty : public ::testing::TestWithParam<int> {};

TEST_P(MemorySemanticsProperty, RandomAddressingAgainstReference) {
  Rng R(1234 + GetParam());
  constexpr int64_t Slots = 64;

  ir::Program P;
  ir::Function &F = P.addFunction("main", 0);
  ir::ProgramBuilder B(P, F);
  Reg Bytes = B.constI(Slots * 8);
  Reg Base = B.alloc(Bytes, "arr");

  // Reference model of the array contents.
  std::vector<uint64_t> Ref(Slots, 0);
  uint64_t ExpectChecksum = 0;
  Reg Acc = B.constI(0);

  for (int Op = 0; Op != 120; ++Op) {
    int64_t Slot = static_cast<int64_t>(R.nextBelow(Slots));
    // Randomly split slot*8 into index*scale + disp forms.
    uint32_t Scale = 8u << R.nextBelow(2); // 8 or 16.
    int64_t Index = (Slot * 8) / Scale;
    int64_t Disp = Slot * 8 - Index * static_cast<int64_t>(Scale);
    Reg IndexReg = B.constI(Index);
    if (R.nextBelow(2) == 0) {
      uint64_t Value = R.next() & 0xffffffffull;
      Reg V = B.constI(static_cast<int64_t>(Value));
      B.store(V, Base, IndexReg, Scale, Disp, 8);
      Ref[Slot] = Value;
    } else {
      Reg V = B.load(Base, IndexReg, Scale, Disp, 8);
      B.accumulate(Acc, V);
      ExpectChecksum += Ref[Slot];
    }
  }
  B.ret(Acc);
  EXPECT_EQ(runIt(P), ExpectChecksum);
}

INSTANTIATE_TEST_SUITE_P(Random, MemorySemanticsProperty,
                         ::testing::Range(0, 15));

// --- Predecoded engine vs reference interpreter ----------------------------
//
// Random programs hitting the predecoder's interesting corners — the
// fusable adjacent pairs (AddI+Load, ConstI+Store, Cmp*+CondBr), mixed
// access sizes, page-straddling accesses, calls, div/rem — run on the
// reference interpreter and on the predecoded core, two threads
// interleaved at a swept quantum. Every counter, every return value,
// every byte of every serialized profile, and the final memory image
// must match the reference exactly.

namespace {

struct SweepOutcome {
  runtime::RunResult Result;
  std::vector<uint64_t> Memory; ///< Final 8-byte slots of the array.
};

constexpr int64_t SweepPartBytes = 8192; // 2 pages per worker
constexpr unsigned SweepThreads = 2;

/// Builds the random program for \p R and runs it. The program and all
/// addresses are fully determined by the seed, so two invocations with
/// the same seed differ only in the interpreter core under test.
SweepOutcome runSweep(uint64_t Seed, bool Reference, uint64_t Quantum) {
  Rng R(Seed);
  runtime::RunConfig Cfg;
  Cfg.ReferenceInterpreter = Reference;
  Cfg.Quantum = Quantum;
  Cfg.Sampling.Period = 64; // dense sampling: profile bytes carry signal
  runtime::ThreadedRuntime RT(Cfg);

  constexpr int64_t ArrayBytes = SweepPartBytes * SweepThreads;
  uint64_t Base = RT.machine().defineStatic("sweeparr", ArrayBytes);

  ir::Program P;

  // helper(base, iv): a short loop of narrow loads plus div/rem, so
  // calls and the non-fused arithmetic tail stay covered.
  ir::Function &Helper = P.addFunction("helper", 2);
  {
    ir::ProgramBuilder B(P, Helper);
    Reg HBase = 0, Iv = 1;
    Reg Acc = B.constI(0);
    B.forLoopI(0, 4, 1, [&](Reg K) {
      Reg Off = B.andI(B.add(Iv, K), SweepPartBytes - 16);
      Reg V = B.load(B.add(HBase, Off), ir::NoReg, 1, 0, 4);
      B.accumulate(Acc, B.rem(V, B.constI(13)));
      B.accumulate(Acc, B.div(V, B.constI(7)));
    });
    B.ret(Acc);
  }

  // main: deterministic initialization of the whole array.
  ir::Function &Main = P.addFunction("main", 0);
  {
    ir::ProgramBuilder B(P, Main);
    Reg BaseReg = B.constI(static_cast<int64_t>(Base));
    B.forLoopI(0, ArrayBytes / 8, 1, [&](Reg I) {
      B.store(B.mulI(I, 0x9e3779b9), BaseReg, I, 8, 0, 8);
    });
    B.ret();
  }

  // worker(tid): random op soup over the thread's own 2-page partition.
  ir::Function &Worker = P.addFunction("worker", 1);
  {
    ir::ProgramBuilder B(P, Worker);
    Reg Tid = 0;
    Reg PBase = B.add(B.constI(static_cast<int64_t>(Base)),
                      B.mul(Tid, B.constI(SweepPartBytes)));
    Reg Acc = B.constI(0);
    int64_t Iters = 12 + static_cast<int64_t>(R.nextBelow(12));
    B.forLoop(B.constI(0), B.constI(Iters), 1, [&](Reg Iv) {
      unsigned NumOps = 4 + static_cast<unsigned>(R.nextBelow(6));
      for (unsigned Op = 0; Op != NumOps; ++Op) {
        uint8_t Size = 1u << R.nextBelow(4); // 1/2/4/8
        int64_t Disp;
        if (R.nextBelow(4) == 0)
          // Deliberate page-straddle candidates around the partition's
          // internal page boundary (PageAccessCache fallback path).
          Disp = 4096 - static_cast<int64_t>(1 + R.nextBelow(Size ? Size : 1));
        else
          Disp = static_cast<int64_t>(R.nextBelow(SweepPartBytes - 8));
        switch (R.nextBelow(5)) {
        case 0: { // ConstI+Store fusion candidate
          Reg V = B.constI(static_cast<int64_t>(R.next() & 0xffffffff));
          B.store(V, PBase, ir::NoReg, 1, Disp, Size);
          break;
        }
        case 1: { // AddI+Load fusion candidate
          // Idx*8 stays under 256 bytes; keep the whole access inside
          // the partition.
          int64_t IdxDisp =
              static_cast<int64_t>(R.nextBelow(SweepPartBytes - 8 - 256)) &
              ~7ll;
          Reg Idx = B.addI(Iv, static_cast<int64_t>(R.nextBelow(8)));
          B.accumulate(Acc, B.load(PBase, Idx, 8, IdxDisp, Size));
          break;
        }
        case 2: { // Cmp+CondBr fusion candidate (loop backedges add more)
          Reg V = B.load(PBase, ir::NoReg, 1, Disp, Size);
          B.ifThen(B.cmpLt(V, B.constI(1 << 30)),
                   [&] { B.accumulate(Acc, V); });
          break;
        }
        case 3: { // store of a loop-carried computation
          Reg V = B.bxor(B.mul(Iv, B.constI(0x5bd1e995)), Acc);
          B.store(V, PBase, ir::NoReg, 1, Disp, Size);
          break;
        }
        default: { // call into the helper
          B.accumulate(Acc, B.call(Helper, {PBase, Iv}));
          break;
        }
        }
      }
    });
    // Checksum sweep of the whole partition: final memory state feeds
    // the returned register value.
    B.forLoopI(0, SweepPartBytes / 8, 1, [&](Reg I) {
      B.accumulate(Acc, B.load(PBase, I, 8, 0, 8));
    });
    B.ret(Acc);
  }

  EXPECT_EQ(ir::verify(P), "");
  analysis::CodeMap Map(P);
  RT.runPhase(P, &Map, {runtime::ThreadSpec{Main.Id, {}}});
  std::vector<runtime::ThreadSpec> Workers;
  for (uint64_t T = 0; T != SweepThreads; ++T)
    Workers.push_back(runtime::ThreadSpec{Worker.Id, {T}});
  RT.runPhase(P, &Map, Workers);

  SweepOutcome Out;
  Out.Result = RT.finish();
  for (int64_t Slot = 0; Slot != ArrayBytes / 8; ++Slot)
    Out.Memory.push_back(RT.machine().Memory.read(Base + Slot * 8, 8));
  return Out;
}

void expectSweepIdentical(const SweepOutcome &Ref, const SweepOutcome &Got,
                          const char *Label) {
  EXPECT_EQ(Ref.Result.ElapsedCycles, Got.Result.ElapsedCycles) << Label;
  EXPECT_EQ(Ref.Result.TotalCycles, Got.Result.TotalCycles) << Label;
  EXPECT_EQ(Ref.Result.Instructions, Got.Result.Instructions) << Label;
  EXPECT_EQ(Ref.Result.MemoryAccesses, Got.Result.MemoryAccesses) << Label;
  EXPECT_EQ(Ref.Result.Samples, Got.Result.Samples) << Label;
  for (unsigned Level = 0; Level != 3; ++Level) {
    EXPECT_EQ(Ref.Result.Accesses[Level], Got.Result.Accesses[Level])
        << Label << " level " << Level;
    EXPECT_EQ(Ref.Result.Misses[Level], Got.Result.Misses[Level])
        << Label << " level " << Level;
  }
  EXPECT_EQ(Ref.Result.ReturnValues, Got.Result.ReturnValues) << Label;
  EXPECT_EQ(Ref.Memory, Got.Memory) << Label;
  ASSERT_EQ(Ref.Result.Profiles.size(), Got.Result.Profiles.size()) << Label;
  for (size_t I = 0; I != Ref.Result.Profiles.size(); ++I)
    EXPECT_EQ(profile::profileToString(Ref.Result.Profiles[I]),
              profile::profileToString(Got.Result.Profiles[I]))
        << Label << " profile " << I;
}

} // namespace

class PredecodeProperty : public ::testing::TestWithParam<int> {};

TEST_P(PredecodeProperty, RandomProgramsBitIdenticalAcrossCores) {
  uint64_t Seed = 555000 + GetParam();
  // Quantum 1 forces the fused-pair defuse path (budget < 2) on every
  // slice; 3 lands mid-pair; 64 is the production default.
  const uint64_t Quanta[] = {1, 3, 64};
  uint64_t Quantum = Quanta[GetParam() % 3];
  SweepOutcome Ref = runSweep(Seed, /*Reference=*/true, Quantum);
  SweepOutcome Pre = runSweep(Seed, /*Reference=*/false, Quantum);
  expectSweepIdentical(Ref, Pre, "predecoded");
  EXPECT_GT(Ref.Result.Samples, 0u);
}

INSTANTIATE_TEST_SUITE_P(Random, PredecodeProperty, ::testing::Range(0, 9));
