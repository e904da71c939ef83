//===- bench/micro_merge.cpp - Profile ingest + merge throughput -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Throughput of the shard ingestion pipeline (paper Sec. 5.2): a
// synthetic many-thread run writes N v3 profile shards to disk, then
// measures
//
//  - the baseline: decode every shard, then one in-memory
//    mergeProfiles over all of them, single-threaded;
//  - the streaming loader (loadAndMergeProfiles), which folds each
//    shard into the tree as it arrives, at jobs=1/2/4.
//
// Every configuration must produce byte-identical merged profiles —
// the bench asserts it by comparing serialized results — and the
// headline number is the single-core (jobs=1) speedup over the
// baseline at the largest shard count. Peak resident decoded profiles
// are reported as the memory proxy: the streaming loader holds
// O(jobs + log N) profiles, the baseline holds all N.
//
// Writes BENCH_merge.json (override the path with argv[1]).
// --smoke shrinks shard count and sizes for CI.
//
//===----------------------------------------------------------------------===//

#include "HostFeatures.h"
#include "core/Analyzer.h"
#include "profile/MergeTree.h"
#include "profile/ProfileIO.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/TablePrinter.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

using namespace structslim;
using structslim::profile::Profile;
using structslim::profile::StreamRecord;

namespace {

/// One synthetic per-thread shard. Threads share most data objects and
/// loops (that is what makes merging real work: streams collide and
/// strides sharpen across shards) plus a few thread-local heap objects.
Profile makeShard(unsigned Shard, unsigned Objects, unsigned StreamsPerObject,
                  unsigned CctNodes) {
  Rng R(0x5eed0 + Shard);
  Profile P;
  P.ThreadId = Shard;
  P.SamplePeriod = 10000;
  for (unsigned Obj = 0; Obj != Objects; ++Obj) {
    bool Shared = Obj + 4 < Objects; // Last few objects are per-thread.
    std::string Key = Shared ? "obj" + std::to_string(Obj)
                             : "heap" + std::to_string(Shard) + "_" +
                                   std::to_string(Obj);
    uint32_t Idx = P.getOrCreateObject(Key);
    uint64_t Start = 0x100000ull * (Obj + 1);
    profile::ObjectAgg &Agg = P.Objects[Idx];
    Agg.Name = Key;
    Agg.Start = Start;
    Agg.Size = 1 << 18;
    for (unsigned S = 0; S != StreamsPerObject; ++S) {
      uint64_t Latency = 1 + R.nextBelow(400);
      Agg.SampleCount += 1;
      Agg.LatencySum += Latency;
      P.TotalSamples += 1;
      P.TotalLatency += Latency;
      // Shared IPs across shards so most stream records merge rather
      // than concatenate.
      StreamRecord &Rec =
          P.getOrCreateStream((static_cast<uint64_t>(Obj) << 20) | S, Idx);
      Rec.LoopId = static_cast<int32_t>(S % 7);
      Rec.Line = 100 + S;
      Rec.AccessSize = 8;
      Rec.SampleCount += 1;
      Rec.LatencySum += Latency;
      Rec.UniqueAddrCount += 1;
      Rec.StrideGcd = 8ull * (1 + S % 4);
      Rec.ObjectStart = Start;
      // Different representative addresses per shard exercise the
      // cross-profile GCD sharpening in the merge hot loop.
      Rec.RepAddr = Start + 64ull * (1 + Shard) + 8 * (S % 16);
      Rec.LastAddr = Rec.RepAddr + Rec.StrideGcd;
      Rec.LevelSamples[S % 4] += 1;
      Rec.TlbMissSamples += S % 11 == 0;
    }
  }
  // A call tree with shared prefixes (threads run the same code).
  std::vector<uint64_t> Path;
  for (unsigned N = 0; N != CctNodes; ++N) {
    Path.clear();
    Path.push_back(0x400000 + N % 5);
    Path.push_back(0x410000 + N % 17);
    Path.push_back(0x420000 + N);
    P.Contexts.attribute(P.Contexts.intern(Path), 1 + R.nextBelow(300));
  }
  return P;
}

/// The baseline: every shard decoded and resident at once, then the
/// in-memory adjacent-pair tree — the same tree shape, so the result
/// is byte-comparable and the delta is streaming, not tree shape.
Profile baselineMerge(const std::vector<std::string> &Files) {
  std::vector<Profile> Profiles;
  Profiles.reserve(Files.size());
  for (const std::string &Path : Files) {
    auto P = profile::readProfileFile(Path);
    if (!P) {
      std::cerr << "baseline failed to read " << Path << "\n";
      std::exit(1);
    }
    Profiles.push_back(std::move(*P));
  }
  return profile::mergeProfiles(std::move(Profiles));
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  const char *JsonPath = "BENCH_merge.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else
      JsonPath = argv[I];
  }

  const unsigned MaxShards = Smoke ? 8 : 64;
  const unsigned Objects = Smoke ? 16 : 48;
  const unsigned StreamsPerObject = Smoke ? 16 : 48;
  const unsigned CctNodes = Smoke ? 32 : 256;
  const unsigned Reps = Smoke ? 1 : 3;
  const unsigned HostCores = std::thread::hardware_concurrency();

  std::cout << "Profile ingest + merge throughput (host hardware_concurrency="
            << HostCores << ", " << MaxShards << " shards x " << Objects
            << " objects x " << StreamsPerObject << " streams)\n\n";

  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("structslim_micro_merge_" + std::to_string(::getpid()));
  fs::create_directories(Dir);

  std::vector<std::string> Files;
  uint64_t ShardBytes = 0;
  for (unsigned I = 0; I != MaxShards; ++I) {
    std::string Bytes = profile::profileToString(
        makeShard(I, Objects, StreamsPerObject, CctNodes));
    ShardBytes += Bytes.size();
    fs::path Path = Dir / ("shard" + std::to_string(I) + ".structslim");
    std::ofstream(Path, std::ios::binary) << Bytes;
    Files.push_back(Path.string());
  }

  TablePrinter Table;
  Table.setHeader({"shards", "pipeline", "jobs", "ingest+merge s", "speedup",
                   "peak resident", "identical"});

  std::vector<unsigned> ShardCounts;
  if (MaxShards >= 8)
    ShardCounts.push_back(MaxShards / 8);
  ShardCounts.push_back(MaxShards);
  const unsigned JobCounts[] = {1, 2, 4};

  std::string Json;
  Json += "{\n  \"bench\": \"micro_merge\",\n";
  Json += hostFeatureJsonFields();
  Json += "  \"host_hardware_concurrency\": " + std::to_string(HostCores) +
          ",\n";
  Json += "  \"objects_per_shard\": " + std::to_string(Objects) + ",\n";
  Json += "  \"streams_per_object\": " + std::to_string(StreamsPerObject) +
          ",\n";
  Json += "  \"shard_bytes\": " + std::to_string(ShardBytes) + ",\n";
  Json += "  \"points\": [\n";

  bool AllIdentical = true;
  double HeadlineSpeedup = 0;
  bool FirstPoint = true;

  for (unsigned Shards : ShardCounts) {
    std::vector<std::string> Sub(Files.begin(), Files.begin() + Shards);

    // Baseline: best of Reps.
    double BaselineSeconds = 0;
    std::string Expected;
    for (unsigned R = 0; R != Reps; ++R) {
      auto T0 = std::chrono::steady_clock::now();
      Profile Merged = baselineMerge(Sub);
      double S = secondsSince(T0);
      if (R == 0 || S < BaselineSeconds)
        BaselineSeconds = S;
      if (R == 0)
        Expected = profile::profileToString(Merged);
    }
    Table.addRow({std::to_string(Shards), "decode-all+mergeProfiles", "1",
                  formatDouble(BaselineSeconds, 4), "1.00x",
                  std::to_string(Shards), "yes"});
    if (!FirstPoint)
      Json += ",\n";
    FirstPoint = false;
    Json += "    {\"shards\": " + std::to_string(Shards) +
            ", \"pipeline\": \"baseline_decode_all_merge\", \"jobs\": 1"
            ", \"ingest_merge_seconds\": " + std::to_string(BaselineSeconds) +
            ", \"speedup\": 1.0, \"peak_resident_profiles\": " +
            std::to_string(Shards) + ", \"identical\": true}";

    for (unsigned Jobs : JobCounts) {
      double BestSeconds = 0;
      profile::MergeLoadResult Load;
      for (unsigned R = 0; R != Reps; ++R) {
        profile::MergeOptions Opts;
        Opts.WorkerThreads = Jobs;
        auto T0 = std::chrono::steady_clock::now();
        profile::MergeLoadResult ThisLoad =
            profile::loadAndMergeProfiles(Sub, Opts);
        double S = secondsSince(T0);
        if (R == 0 || S < BestSeconds) {
          BestSeconds = S;
          Load = std::move(ThisLoad);
        }
      }
      bool Identical = profile::profileToString(Load.Merged) == Expected &&
                       Load.Loaded.size() == Shards;
      AllIdentical = AllIdentical && Identical;
      double Speedup = BestSeconds > 0 ? BaselineSeconds / BestSeconds : 0.0;
      if (Shards == MaxShards && Jobs == 1)
        HeadlineSpeedup = Speedup;
      Table.addRow({std::to_string(Shards), "v3+streaming", std::to_string(Jobs),
                    formatDouble(BestSeconds, 4),
                    formatDouble(Speedup, 2) + "x",
                    std::to_string(Load.PeakResidentProfiles),
                    Identical ? "yes" : "NO"});
      Json += ",\n    {\"shards\": " + std::to_string(Shards) +
              ", \"pipeline\": \"v3_streaming\", \"jobs\": " +
              std::to_string(Jobs) +
              ", \"ingest_merge_seconds\": " + std::to_string(BestSeconds) +
              ", \"speedup\": " + std::to_string(Speedup) +
              ", \"peak_resident_profiles\": " +
              std::to_string(Load.PeakResidentProfiles) +
              ", \"identical\": " + (Identical ? "true" : "false") + "}";
    }
  }
  Json += "\n  ],\n";

  // One cold analysis of the full merged profile: every object, so the
  // row tracks the analyzer's cost on a many-shard merge.
  double AnalyzeColdSeconds = 0;
  {
    profile::MergeOptions Opts;
    Opts.WorkerThreads = 1;
    Profile Merged = profile::loadAndMergeProfiles(Files, Opts).Merged;
    core::AnalysisConfig Config;
    Config.TopObjects = 1000;
    Config.MinObjectShare = 0;
    core::StructSlimAnalyzer Analyzer(Config);
    auto TCold = std::chrono::steady_clock::now();
    core::AnalysisResult Cold = Analyzer.analyze(Merged);
    AnalyzeColdSeconds = secondsSince(TCold);
    std::cout << "Cold analysis: " << formatDouble(AnalyzeColdSeconds, 4)
              << "s over " << Cold.Objects.size() << " objects\n\n";
  }
  Json += "  \"analysis\": {\"cold_seconds\": " +
          std::to_string(AnalyzeColdSeconds) + "},\n";
  Json += "  \"headline_single_core_speedup\": " +
          std::to_string(HeadlineSpeedup) + ",\n";
  Json += "  \"all_identical\": " + std::string(AllIdentical ? "true"
                                                             : "false") +
          "\n}\n";

  std::ofstream(JsonPath) << Json;
  Table.print(std::cout);
  std::cout << "\nHeadline single-core speedup at " << MaxShards
            << " shards: " << formatDouble(HeadlineSpeedup, 2) << "x. JSON: "
            << JsonPath << "\n";

  std::error_code Ec;
  fs::remove_all(Dir, Ec);

  if (!AllIdentical) {
    std::cerr << "\nFAIL: merged profiles diverged across pipelines\n";
    return 1;
  }
  return 0;
}
