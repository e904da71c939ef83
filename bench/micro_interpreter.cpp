//===- bench/micro_interpreter.cpp - Interpreter core throughput -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Throughput of the two interpreter cores on a profiler-shaped hot
// loop: the reference core (direct ir::Instr walk, one switch per
// instruction) against the predecoded core (threaded dispatch over
// dense op arrays, fused pairs, flat frames, page-pointer cache). Each
// core runs the same program with the profiler detached (the pure
// simulation path the paper's Fig. 4/5 baselines pay) and attached
// (PMU sampling + online attribution on top). The cores must agree bit
// for bit — this bench asserts counters, return values, and serialized
// profile bytes — and the interesting output is instructions per
// second and the predecoded/reference speedup.
//
// Writes BENCH_interp.json (override the path with argv[1]).
//
//===----------------------------------------------------------------------===//

#include "HostFeatures.h"
#include "analysis/CodeMap.h"
#include "ir/ProgramBuilder.h"
#include "profile/ProfileIO.h"
#include "runtime/ThreadedRuntime.h"
#include "support/Format.h"
#include "support/TablePrinter.h"

#include <chrono>
#include <fstream>
#include <iostream>

using namespace structslim;
using ir::Reg;

namespace {

struct Built {
  std::unique_ptr<ir::Program> P;
  uint32_t MainId = 0;
  uint32_t WorkerId = 0;
};

/// The hot loop: Reps passes over an N-slot array, each iteration a
/// mix the predecoder cares about — indexed loads behind an AddI
/// (fusable), a compare-and-branch (fusable), a strided store, and a
/// helper call every pass to keep the frame stack warm.
Built build(runtime::Machine &M, int64_t N, int64_t Reps) {
  uint64_t Mailbox = M.defineStatic("interp_shared", 64);
  Built Out;
  Out.P = std::make_unique<ir::Program>();

  ir::Function &Main = Out.P->addFunction("main", 0);
  Out.MainId = Main.Id;
  {
    ir::ProgramBuilder B(*Out.P, Main);
    B.setLine(100);
    Reg Bytes = B.constI(N * 8);
    Reg Arr = B.alloc(Bytes, "_Hot");
    B.forLoopI(0, N, 1, [&](Reg I) {
      B.setLine(101);
      B.store(B.mulI(I, 0x9e3779b9), Arr, I, 8, 0, 8);
      B.setLine(100);
    });
    Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
    B.store(Arr, Mb, ir::NoReg, 1, 0, 8);
    B.ret();
  }

  ir::Function &Worker = Out.P->addFunction("hotloop", 1);
  Out.WorkerId = Worker.Id;
  {
    ir::ProgramBuilder B(*Out.P, Worker);
    Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
    Reg Arr = B.load(Mb, ir::NoReg, 1, 0, 8);
    Reg Acc = B.constI(0);
    B.setLine(200);
    B.forLoopI(0, Reps, 1, [&](Reg Pass) {
      B.forLoopI(0, N, 1, [&](Reg I) {
        B.setLine(201);
        Reg J = B.addI(I, 1);          // AddI+Load: fused pair
        Reg V = B.load(Arr, I, 8, 0, 8);
        Reg W = B.load(Arr, J, 8, 0, 4);
        // Murmur-style mixing: the arithmetic tail a compiled hot loop
        // carries between its memory accesses.
        Reg H = B.bxor(V, W);
        H = B.mulI(H, 0x5bd1e995);
        H = B.bxor(H, B.shr(H, B.constI(15)));
        H = B.addI(H, 0x2545f491);
        H = B.bxor(H, B.shl(H, B.constI(3)));
        H = B.mulI(H, 0x9e3779b1);
        H = B.bxor(H, B.shr(H, B.constI(13)));
        B.accumulate(Acc, H);
        B.ifThen(B.cmpLt(W, B.constI(1 << 16)), // CmpLt+CondBr: fused
                 [&] { B.accumulate(Acc, B.constI(3)); });
        B.store(B.add(V, Pass), Arr, I, 8, 0, 8);
        B.setLine(200);
      });
    });
    B.ret(Acc);
  }
  return Out;
}

struct Measured {
  runtime::RunResult R;
  double Seconds = 0;
};

Measured runOnce(bool Reference, bool Attach, int64_t N, int64_t Reps) {
  runtime::RunConfig Cfg;
  Cfg.ReferenceInterpreter = Reference;
  Cfg.AttachProfiler = Attach;
  runtime::ThreadedRuntime RT(Cfg);
  Built Program = build(RT.machine(), N, Reps);
  analysis::CodeMap Map(*Program.P);
  RT.runPhase(*Program.P, &Map, {runtime::ThreadSpec{Program.MainId, {}}});
  auto Begin = std::chrono::steady_clock::now();
  RT.runPhase(*Program.P, &Map, {runtime::ThreadSpec{Program.WorkerId, {0}}});
  auto End = std::chrono::steady_clock::now();
  Measured Out;
  Out.R = RT.finish();
  Out.Seconds = std::chrono::duration<double>(End - Begin).count();
  return Out;
}

/// Best of \p Trials runs: simulated results are deterministic (and
/// asserted identical across trials), wall time takes the minimum to
/// shed scheduler noise.
Measured runBest(bool Reference, bool Attach, int64_t N, int64_t Reps,
                 int Trials = 3) {
  Measured Best = runOnce(Reference, Attach, N, Reps);
  for (int T = 1; T < Trials; ++T) {
    Measured M = runOnce(Reference, Attach, N, Reps);
    if (M.Seconds < Best.Seconds)
      Best = M;
  }
  return Best;
}

bool identical(const runtime::RunResult &A, const runtime::RunResult &B) {
  if (A.ElapsedCycles != B.ElapsedCycles || A.TotalCycles != B.TotalCycles ||
      A.Instructions != B.Instructions ||
      A.MemoryAccesses != B.MemoryAccesses || A.Samples != B.Samples ||
      A.ReturnValues != B.ReturnValues)
    return false;
  for (unsigned Level = 0; Level != 3; ++Level)
    if (A.Accesses[Level] != B.Accesses[Level] ||
        A.Misses[Level] != B.Misses[Level])
      return false;
  if (A.Profiles.size() != B.Profiles.size())
    return false;
  for (size_t I = 0; I != A.Profiles.size(); ++I)
    if (profile::profileToString(A.Profiles[I]) !=
        profile::profileToString(B.Profiles[I]))
      return false;
  return true;
}

double ips(const Measured &M) {
  return M.Seconds > 0 ? static_cast<double>(M.R.Instructions) / M.Seconds
                       : 0.0;
}

} // namespace

int main(int argc, char **argv) {
  // --smoke: one small trial per config, for CI. A JSON path may
  // follow or precede it.
  bool Smoke = false;
  const char *JsonPath = "BENCH_interp.json";
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) == "--smoke")
      Smoke = true;
    else
      JsonPath = argv[I];
  }
  const int64_t N = Smoke ? 1 << 10 : 1 << 14;
  const int64_t Reps = Smoke ? 8 : 160;
  const int Trials = Smoke ? 1 : 3;

  std::cout << "Interpreter core throughput (hot loop, " << N << " slots x "
            << Reps << " passes)\n\n";

  // Detached: the pure-simulation path.
  Measured RefDet =
      runBest(/*Reference=*/true, /*Attach=*/false, N, Reps, Trials);
  Measured PreDet = runBest(false, false, N, Reps, Trials);
  // Attached: sampling + online attribution on top.
  Measured RefAtt = runBest(true, true, N, Reps, Trials);
  Measured PreAtt = runBest(false, true, N, Reps, Trials);

  bool Identical = identical(RefDet.R, PreDet.R) &&
                   identical(RefAtt.R, PreAtt.R);

  double SpeedupDet = ips(RefDet) > 0 ? ips(PreDet) / ips(RefDet) : 0.0;
  double SpeedupAtt = ips(RefAtt) > 0 ? ips(PreAtt) / ips(RefAtt) : 0.0;

  TablePrinter Table;
  Table.setHeader({"config", "seconds", "Minstr/s", "speedup"});
  Table.addRow({"reference detached", formatDouble(RefDet.Seconds, 3),
                formatDouble(ips(RefDet) / 1e6, 1), "1.00x"});
  Table.addRow({"predecoded detached", formatDouble(PreDet.Seconds, 3),
                formatDouble(ips(PreDet) / 1e6, 1),
                formatDouble(SpeedupDet, 2) + "x"});
  Table.addRow({"reference attached", formatDouble(RefAtt.Seconds, 3),
                formatDouble(ips(RefAtt) / 1e6, 1), "1.00x"});
  Table.addRow({"predecoded attached", formatDouble(PreAtt.Seconds, 3),
                formatDouble(ips(PreAtt) / 1e6, 1),
                formatDouble(SpeedupAtt, 2) + "x"});
  Table.print(std::cout);

  std::ofstream Json(JsonPath);
  Json << "{\n  \"bench\": \"micro_interpreter\",\n"
       << hostFeatureJsonFields()
       << "  \"slots\": " << N << ",\n  \"reps\": " << Reps << ",\n"
       << "  \"instructions\": " << RefDet.R.Instructions << ",\n"
       << "  \"reference_detached_ips\": " << ips(RefDet) << ",\n"
       << "  \"predecoded_detached_ips\": " << ips(PreDet) << ",\n"
       << "  \"speedup_detached\": " << SpeedupDet << ",\n"
       << "  \"reference_attached_ips\": " << ips(RefAtt) << ",\n"
       << "  \"predecoded_attached_ips\": " << ips(PreAtt) << ",\n"
       << "  \"speedup_attached\": " << SpeedupAtt << ",\n"
       << "  \"smoke\": " << (Smoke ? "true" : "false") << ",\n"
       << "  \"identical\": " << (Identical ? "true" : "false") << "\n}\n";

  if (!Identical) {
    std::cerr << "\nFAIL: predecoded core diverged from the reference\n";
    return 1;
  }
  std::cout << "\nAll configurations bit-identical. JSON: " << JsonPath
            << "\n";
  return 0;
}
