//===- tests/runtime_test.cpp - ThreadedRuntime tests ----------*- C++ -*-===//

#include "analysis/CodeMap.h"
#include "ir/ProgramBuilder.h"
#include "profile/ProfileIO.h"
#include "runtime/ThreadedRuntime.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace structslim;
using namespace structslim::runtime;
using structslim::ir::NoReg;
using structslim::ir::Reg;

namespace {

/// A worker(tid) that scans a shared array published via a mailbox at
/// a fixed static address and returns its partition sum.
struct SharedArrayProgram {
  ir::Program P;
  uint32_t MainId = 0;
  uint32_t WorkerId = 0;
  uint64_t Mailbox = 0;
  int64_t N;
  int64_t PartSize;

  SharedArrayProgram(Machine &M, int64_t N, unsigned Threads)
      : N(N), PartSize(N / Threads) {
    Mailbox = M.defineStatic("mailbox", 64);
    ir::Function &Main = P.addFunction("main", 0);
    MainId = Main.Id;
    {
      ir::ProgramBuilder B(P, Main);
      Reg Bytes = B.constI(N * 8);
      Reg Base = B.alloc(Bytes, "shared");
      B.forLoopI(0, N, 1, [&](Reg I) { B.store(I, Base, I, 8, 0, 8); });
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      B.store(Base, Mb, NoReg, 1, 0, 8);
      B.ret();
    }
    ir::Function &Worker = P.addFunction("worker", 1);
    WorkerId = Worker.Id;
    {
      ir::ProgramBuilder B(P, Worker);
      Reg Tid = 0;
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      Reg Base = B.load(Mb, NoReg, 1, 0, 8);
      Reg Part = B.constI(PartSize);
      Reg Lo = B.mul(Tid, Part);
      Reg Hi = B.add(Lo, Part);
      Reg Acc = B.constI(0);
      B.setLine(50);
      B.forLoop(Lo, Hi, 1, [&](Reg I) {
        B.setLine(51);
        Reg V = B.load(Base, I, 8, 0, 8);
        B.accumulate(Acc, V);
        B.setLine(50);
      });
      B.ret(Acc);
    }
  }
};

std::string profileText(const profile::Profile &P) {
  std::ostringstream OS;
  profile::writeProfile(P, OS);
  return OS.str();
}

/// Asserts that two runs are bit-identical: every counter and every
/// serialized per-thread profile.
void expectIdenticalRuns(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.ElapsedCycles, B.ElapsedCycles);
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.MemoryAccesses, B.MemoryAccesses);
  EXPECT_EQ(A.Samples, B.Samples);
  for (unsigned Level = 0; Level != 3; ++Level) {
    EXPECT_EQ(A.Accesses[Level], B.Accesses[Level])
        << "level " << Level;
    EXPECT_EQ(A.Misses[Level], B.Misses[Level])
        << "level " << Level;
  }
  EXPECT_EQ(A.ReturnValues, B.ReturnValues);
  ASSERT_EQ(A.Profiles.size(), B.Profiles.size());
  for (size_t I = 0; I != A.Profiles.size(); ++I)
    EXPECT_EQ(profileText(A.Profiles[I]),
              profileText(B.Profiles[I]))
        << "profile " << I;
}

/// Health-style phase: each worker stores into (then re-reads) its own
/// disjoint partition of a shared array.
struct WriterProgram {
  ir::Program P;
  uint32_t MainId = 0;
  uint32_t WorkerId = 0;

  WriterProgram(Machine &M, int64_t N, unsigned Threads) {
    uint64_t Mailbox = M.defineStatic("mailbox", 64);
    int64_t Part = N / Threads;
    ir::Function &Main = P.addFunction("main", 0);
    MainId = Main.Id;
    {
      ir::ProgramBuilder B(P, Main);
      Reg Bytes = B.constI(N * 8);
      Reg Base = B.alloc(Bytes, "field");
      B.forLoopI(0, N, 1, [&](Reg I) { B.store(I, Base, I, 8, 0, 8); });
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      B.store(Base, Mb, NoReg, 1, 0, 8);
      B.ret();
    }
    ir::Function &Worker = P.addFunction("writer", 1);
    WorkerId = Worker.Id;
    {
      ir::ProgramBuilder B(P, Worker);
      Reg Tid = 0;
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      Reg Base = B.load(Mb, NoReg, 1, 0, 8);
      Reg Lo = B.mul(Tid, B.constI(Part));
      Reg Hi = B.add(Lo, B.constI(Part));
      B.setLine(20);
      // Pass 1: increment every element of the own partition.
      B.forLoop(Lo, Hi, 1, [&](Reg I) {
        B.setLine(21);
        Reg V = B.load(Base, I, 8, 0, 8);
        Reg W = B.add(V, B.constI(3));
        B.store(W, Base, I, 8, 0, 8);
        B.setLine(20);
      });
      // Pass 2: sum it back (reads own writes from earlier rounds).
      Reg Acc = B.constI(0);
      B.setLine(22);
      B.forLoop(Lo, Hi, 1, [&](Reg I) {
        B.setLine(23);
        Reg V = B.load(Base, I, 8, 0, 8);
        B.accumulate(Acc, V);
        B.setLine(22);
      });
      B.ret(Acc);
    }
  }
};

} // namespace

TEST(ThreadedRuntime, SingleThreadPhases) {
  RunConfig Cfg;
  ThreadedRuntime RT(Cfg);
  SharedArrayProgram Prog(RT.machine(), 1000, 4);
  analysis::CodeMap Map(Prog.P);
  RT.runPhase(Prog.P, &Map, {ThreadSpec{Prog.MainId, {}}});
  RT.runPhase(Prog.P, &Map, {ThreadSpec{Prog.WorkerId, {0}}});
  RunResult R = RT.finish();
  ASSERT_EQ(R.ReturnValues.size(), 2u);
  // Worker 0 sums 0..249.
  EXPECT_EQ(R.ReturnValues[1], 249u * 250 / 2);
  EXPECT_EQ(R.Profiles.size(), 2u);
}

TEST(ThreadedRuntime, FourWorkersPartitionCorrectly) {
  RunConfig Cfg;
  ThreadedRuntime RT(Cfg);
  SharedArrayProgram Prog(RT.machine(), 1000, 4);
  analysis::CodeMap Map(Prog.P);
  RT.runPhase(Prog.P, &Map, {ThreadSpec{Prog.MainId, {}}});
  std::vector<ThreadSpec> Workers;
  for (uint64_t T = 0; T != 4; ++T)
    Workers.push_back(ThreadSpec{Prog.WorkerId, {T}});
  RT.runPhase(Prog.P, &Map, Workers);
  RunResult R = RT.finish();
  ASSERT_EQ(R.ReturnValues.size(), 5u);
  uint64_t Sum = 0;
  for (size_t I = 1; I != 5; ++I)
    Sum += R.ReturnValues[I];
  EXPECT_EQ(Sum, 999u * 1000 / 2); // Partitions cover everything once.
  EXPECT_EQ(R.Profiles.size(), 5u);
  // Each spawned thread got a distinct id.
  EXPECT_EQ(R.Profiles[1].ThreadId, 1u);
  EXPECT_EQ(R.Profiles[4].ThreadId, 4u);
}

TEST(ThreadedRuntime, DeterministicAcrossRuns) {
  auto Execute = [] {
    RunConfig Cfg;
    ThreadedRuntime RT(Cfg);
    SharedArrayProgram Prog(RT.machine(), 2000, 4);
    analysis::CodeMap Map(Prog.P);
    RT.runPhase(Prog.P, &Map, {ThreadSpec{Prog.MainId, {}}});
    std::vector<ThreadSpec> Workers;
    for (uint64_t T = 0; T != 4; ++T)
      Workers.push_back(ThreadSpec{Prog.WorkerId, {T}});
    RT.runPhase(Prog.P, &Map, Workers);
    return RT.finish();
  };
  RunResult A = Execute();
  RunResult B = Execute();
  EXPECT_EQ(A.ElapsedCycles, B.ElapsedCycles);
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  EXPECT_EQ(A.Samples, B.Samples);
  EXPECT_EQ(A.Misses[0], B.Misses[0]);
  EXPECT_EQ(A.Misses[2], B.Misses[2]);
  ASSERT_EQ(A.Profiles.size(), B.Profiles.size());
  for (size_t I = 0; I != A.Profiles.size(); ++I) {
    EXPECT_EQ(A.Profiles[I].TotalSamples, B.Profiles[I].TotalSamples);
    EXPECT_EQ(A.Profiles[I].TotalLatency, B.Profiles[I].TotalLatency);
  }
}

TEST(ThreadedRuntime, DetachedRunsSameProgramNoProfiles) {
  RunConfig Cfg;
  Cfg.AttachProfiler = false;
  ThreadedRuntime RT(Cfg);
  SharedArrayProgram Prog(RT.machine(), 500, 4);
  RT.runPhase(Prog.P, nullptr, {ThreadSpec{Prog.MainId, {}}});
  RT.runPhase(Prog.P, nullptr, {ThreadSpec{Prog.WorkerId, {1}}});
  RunResult R = RT.finish();
  EXPECT_TRUE(R.Profiles.empty());
  EXPECT_EQ(R.Samples, 0u);
  EXPECT_EQ(R.ReturnValues[1],
            (125u + 249u) * 125 / 2); // Sum 125..249.
}

TEST(ThreadedRuntime, AttachedRequiresCodeMap) {
  RunConfig Cfg;
  ThreadedRuntime RT(Cfg);
  SharedArrayProgram Prog(RT.machine(), 100, 4);
  EXPECT_DEATH(RT.runPhase(Prog.P, nullptr, {ThreadSpec{Prog.MainId, {}}}),
               "no code map");
}

TEST(ThreadedRuntime, SampleHandlerCostCharged) {
  auto CyclesWith = [](unsigned HandlerCycles) {
    RunConfig Cfg;
    Cfg.SampleHandlerCycles = HandlerCycles;
    Cfg.Sampling.Period = 100; // Dense sampling for a visible effect.
    ThreadedRuntime RT(Cfg);
    SharedArrayProgram Prog(RT.machine(), 5000, 4);
    analysis::CodeMap Map(Prog.P);
    RT.runPhase(Prog.P, &Map, {ThreadSpec{Prog.MainId, {}}});
    RunResult R = RT.finish();
    return std::pair(R.ElapsedCycles, R.Samples);
  };
  auto [Cheap, SamplesCheap] = CyclesWith(0);
  auto [Costly, SamplesCostly] = CyclesWith(1000);
  EXPECT_EQ(SamplesCheap, SamplesCostly); // Same execution.
  EXPECT_EQ(Costly, Cheap + SamplesCostly * 1000);
}

TEST(ThreadedRuntime, ElapsedIsMaxPerPhase) {
  // Two workers with very different work: elapsed cycles reflect the
  // slower one, not the sum.
  RunConfig Cfg;
  Cfg.AttachProfiler = false;
  ThreadedRuntime RT(Cfg);
  SharedArrayProgram Prog(RT.machine(), 8000, 8);
  RT.runPhase(Prog.P, nullptr, {ThreadSpec{Prog.MainId, {}}});
  RunResult Setup = RT.finish();

  RunConfig Cfg2;
  Cfg2.AttachProfiler = false;
  ThreadedRuntime RT2(Cfg2);
  SharedArrayProgram Prog2(RT2.machine(), 8000, 8);
  RT2.runPhase(Prog2.P, nullptr, {ThreadSpec{Prog2.MainId, {}}});
  // Eight equal workers in one phase.
  std::vector<ThreadSpec> Workers;
  for (uint64_t T = 0; T != 8; ++T)
    Workers.push_back(ThreadSpec{Prog2.WorkerId, {T}});
  RT2.runPhase(Prog2.P, nullptr, Workers);
  RunResult Parallel = RT2.finish();

  uint64_t WorkerElapsed = Parallel.ElapsedCycles - Setup.ElapsedCycles;
  uint64_t WorkerTotal = Parallel.TotalCycles - Setup.TotalCycles;
  // Eight balanced workers: elapsed ~ total/8, certainly < total/4.
  EXPECT_LT(WorkerElapsed, WorkerTotal / 4);
}

TEST(ThreadedRuntime, CacheCountersAggregate) {
  RunConfig Cfg;
  Cfg.AttachProfiler = false;
  ThreadedRuntime RT(Cfg);
  SharedArrayProgram Prog(RT.machine(), 1000, 4);
  RT.runPhase(Prog.P, nullptr, {ThreadSpec{Prog.MainId, {}}});
  RunResult R = RT.finish();
  EXPECT_GT(R.Accesses[0], 0u);
  EXPECT_GT(R.Misses[0], 0u);
  // L2 demand accesses equal L1 misses in this strictly inclusive walk.
  EXPECT_EQ(R.Accesses[1], R.Misses[0]);
  EXPECT_EQ(R.Accesses[2], R.Misses[1]);
  // 1000 init stores plus the mailbox publish.
  EXPECT_EQ(R.MemoryAccesses, 1001u);
}

// The reference interpreter (direct ir::Instr walk) and the predecoded
// core must agree bit for bit on a multithreaded phase at every
// quantum — same counters, same serialized profiles. Quantum 1 splits
// every fused pair; 17 lands mid-pair; 64 is the default.
TEST(PredecodedEngine, BitIdenticalWithReferenceCore) {
  for (uint64_t Quantum : {1ull, 17ull, 64ull}) {
    auto Execute = [Quantum](bool Reference) {
      RunConfig Cfg;
      // Dense, jittered sampling so the profiles carry real signal.
      Cfg.Sampling.Period = 64;
      Cfg.Quantum = Quantum;
      Cfg.ReferenceInterpreter = Reference;
      ThreadedRuntime RT(Cfg);
      WriterProgram Program(RT.machine(), 4096, 4);
      analysis::CodeMap Map(Program.P);
      RT.runPhase(Program.P, &Map, {ThreadSpec{Program.MainId, {}}});
      std::vector<ThreadSpec> Workers;
      for (uint64_t T = 0; T != 4; ++T)
        Workers.push_back(ThreadSpec{Program.WorkerId, {T}});
      RT.runPhase(Program.P, &Map, Workers);
      return RT.finish();
    };
    RunResult Ref = Execute(/*Reference=*/true);
    RunResult Pre = Execute(/*Reference=*/false);
    SCOPED_TRACE("quantum " + std::to_string(Quantum));
    expectIdenticalRuns(Ref, Pre);
    EXPECT_GT(Ref.Samples, 0u);
  }
}
