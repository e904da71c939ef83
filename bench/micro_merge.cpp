//===- bench/micro_merge.cpp - Profile ingest + merge throughput -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Throughput of the shard ingestion pipeline (paper Sec. 5.2): a
// synthetic many-thread run writes N profile shards to disk in both
// the v2 text format and the v3 binary format, then measures
//
//  - the pre-PR baseline: v2 text decode + string-keyed adjacent-pair
//    tree merge, single-threaded;
//  - the current pipeline (loadAndMergeProfiles): v3 decode + interned
//    allocation-free merge, streamed, at jobs=1/2/4;
//  - raw decode throughput of v2 vs v3 for the same profiles.
//
// Every configuration must produce byte-identical merged profiles —
// the bench asserts it by comparing serialized results — and the
// headline number is the single-core (jobs=1) speedup over the
// baseline at the largest shard count. Peak resident decoded profiles
// are reported as the memory proxy: the streaming loader holds O(jobs)
// shards, the baseline holds all N.
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

/// The pre-PR pipeline: decode a text shard per file, then reduce with
/// the string-keyed merge over the same adjacent-pair tree shape the
/// current code uses — so the result is byte-comparable and the
/// measured delta is decode + merge mechanics, not tree shape.
Profile baselineMerge(const std::vector<std::string> &Files) {
  std::vector<Profile> Profiles;
  Profiles.reserve(Files.size());
  for (const std::string &Path : Files) {
    std::ifstream In(Path, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    auto P = profile::profileFromBytes(Bytes);
    if (!P) {
      std::cerr << "baseline failed to read " << Path << "\n";
      std::exit(1);
    }
    Profiles.push_back(std::move(*P));
  }
  while (Profiles.size() > 1) {
    size_t Pairs = Profiles.size() / 2;
    bool Odd = (Profiles.size() & 1) != 0;
    for (size_t I = 0; I != Pairs; ++I)
      Profiles[2 * I].merge(Profiles[2 * I + 1]); // String-keyed path.
    for (size_t I = 1; I != Pairs; ++I)
      Profiles[I] = std::move(Profiles[2 * I]);
    if (Odd)
      Profiles[Pairs] = std::move(Profiles.back());
    Profiles.resize(Pairs + (Odd ? 1 : 0));
  }
  return std::move(Profiles.front());
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

  // Write every shard in both formats.
  std::vector<std::string> FilesV2, FilesV3;
  uint64_t BytesV2 = 0, BytesV3 = 0;
  for (unsigned I = 0; I != MaxShards; ++I) {
    Profile Shard = makeShard(I, Objects, StreamsPerObject, CctNodes);
    std::string V2 = profile::profileToString(Shard, 2);
    std::string V3 = profile::profileToString(Shard, 3);
    BytesV2 += V2.size();
    BytesV3 += V3.size();
    fs::path P2 = Dir / ("shard" + std::to_string(I) + ".v2.structslim");
    fs::path P3 = Dir / ("shard" + std::to_string(I) + ".v3.structslim");
    std::ofstream(P2, std::ios::binary) << V2;
    std::ofstream(P3, std::ios::binary) << V3;
    FilesV2.push_back(P2.string());
    FilesV3.push_back(P3.string());
  }

  // Raw decode throughput, v2 text vs v3 binary, same profiles.
  double DecodeV2 = 0, DecodeV3 = 0;
  {
    std::vector<std::string> BufV2, BufV3;
    for (unsigned I = 0; I != MaxShards; ++I) {
      std::ifstream In2(FilesV2[I], std::ios::binary);
      BufV2.emplace_back((std::istreambuf_iterator<char>(In2)),
                         std::istreambuf_iterator<char>());
      std::ifstream In3(FilesV3[I], std::ios::binary);
      BufV3.emplace_back((std::istreambuf_iterator<char>(In3)),
                         std::istreambuf_iterator<char>());
    }
    unsigned DecodeReps = Smoke ? 1 : 3;
    auto T2 = std::chrono::steady_clock::now();
    for (unsigned R = 0; R != DecodeReps; ++R)
      for (const std::string &B : BufV2)
        if (!profile::profileFromBytes(B))
          return 1;
    DecodeV2 = secondsSince(T2) / DecodeReps;
    auto T3 = std::chrono::steady_clock::now();
    for (unsigned R = 0; R != DecodeReps; ++R)
      for (const std::string &B : BufV3)
        if (!profile::profileFromBytes(B))
          return 1;
    DecodeV3 = secondsSince(T3) / DecodeReps;
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
  Json += "  \"decode\": {\"shards\": " + std::to_string(MaxShards) +
          ", \"v2_bytes\": " + std::to_string(BytesV2) +
          ", \"v3_bytes\": " + std::to_string(BytesV3) +
          ", \"v2_seconds\": " + std::to_string(DecodeV2) +
          ", \"v3_seconds\": " + std::to_string(DecodeV3) +
          ", \"v3_decode_speedup\": " +
          std::to_string(DecodeV3 > 0 ? DecodeV2 / DecodeV3 : 0.0) + "},\n";
  Json += "  \"points\": [\n";

  bool AllIdentical = true;
  double HeadlineSpeedup = 0;
  bool FirstPoint = true;

  for (unsigned Shards : ShardCounts) {
    std::vector<std::string> SubV2(FilesV2.begin(), FilesV2.begin() + Shards);
    std::vector<std::string> SubV3(FilesV3.begin(), FilesV3.begin() + Shards);

    // Baseline: best of Reps.
    double BaselineSeconds = 0;
    std::string Expected;
    for (unsigned R = 0; R != Reps; ++R) {
      auto T0 = std::chrono::steady_clock::now();
      Profile Merged = baselineMerge(SubV2);
      double S = secondsSince(T0);
      if (R == 0 || S < BaselineSeconds)
        BaselineSeconds = S;
      if (R == 0)
        Expected = profile::profileToString(Merged);
    }
    Table.addRow({std::to_string(Shards), "v2+string-merge", "1",
                  formatDouble(BaselineSeconds, 4), "1.00x",
                  std::to_string(Shards), "yes"});
    if (!FirstPoint)
      Json += ",\n";
    FirstPoint = false;
    Json += "    {\"shards\": " + std::to_string(Shards) +
            ", \"pipeline\": \"baseline_v2_string_merge\", \"jobs\": 1"
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
            profile::loadAndMergeProfiles(SubV3, Opts);
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

#if defined(__unix__) || defined(__APPLE__)
    // The same jobs=1 pipeline with mmap disabled: isolates what the
    // zero-copy mapped decode buys over buffered whole-file reads.
    {
      double BestSeconds = 0;
      profile::MergeLoadResult Load;
      ::setenv("STRUCTSLIM_NO_MMAP", "1", 1);
      for (unsigned R = 0; R != Reps; ++R) {
        profile::MergeOptions Opts;
        Opts.WorkerThreads = 1;
        auto T0 = std::chrono::steady_clock::now();
        profile::MergeLoadResult ThisLoad =
            profile::loadAndMergeProfiles(SubV3, Opts);
        double S = secondsSince(T0);
        if (R == 0 || S < BestSeconds) {
          BestSeconds = S;
          Load = std::move(ThisLoad);
        }
      }
      ::unsetenv("STRUCTSLIM_NO_MMAP");
      bool Identical = profile::profileToString(Load.Merged) == Expected &&
                       Load.Loaded.size() == Shards;
      AllIdentical = AllIdentical && Identical;
      double Speedup = BestSeconds > 0 ? BaselineSeconds / BestSeconds : 0.0;
      Table.addRow({std::to_string(Shards), "v3+buffered(no-mmap)", "1",
                    formatDouble(BestSeconds, 4),
                    formatDouble(Speedup, 2) + "x",
                    std::to_string(Load.PeakResidentProfiles),
                    Identical ? "yes" : "NO"});
      Json += ",\n    {\"shards\": " + std::to_string(Shards) +
              ", \"pipeline\": \"v3_buffered\", \"jobs\": 1"
              ", \"ingest_merge_seconds\": " + std::to_string(BestSeconds) +
              ", \"speedup\": " + std::to_string(Speedup) +
              ", \"peak_resident_profiles\": " +
              std::to_string(Load.PeakResidentProfiles) +
              ", \"identical\": " + (Identical ? "true" : "false") + "}";
    }
#endif

    // Epoch-wise accumulation (batches of 8): the incremental ingest
    // path long-running consumers use. Must cost the same as one-shot
    // and merge to the identical bytes — the stack IS the canonical
    // tree's frontier.
    {
      const size_t Batch = 8;
      double BestSeconds = 0;
      size_t PeakResident = 0;
      Profile Merged;
      for (unsigned R = 0; R != Reps; ++R) {
        profile::MergeOptions Opts;
        Opts.WorkerThreads = 1;
        auto T0 = std::chrono::steady_clock::now();
        profile::EpochAccumulator Acc(Opts);
        for (size_t I = 0; I < SubV3.size(); I += Batch) {
          size_t End = std::min(I + Batch, SubV3.size());
          Acc.addShards({SubV3.begin() + I, SubV3.begin() + End});
        }
        Profile ThisMerged = Acc.take();
        double S = secondsSince(T0);
        if (R == 0 || S < BestSeconds) {
          BestSeconds = S;
          PeakResident = Acc.peakResidentProfiles();
          Merged = std::move(ThisMerged);
        }
      }
      bool Identical = profile::profileToString(Merged) == Expected;
      AllIdentical = AllIdentical && Identical;
      double Speedup = BestSeconds > 0 ? BaselineSeconds / BestSeconds : 0.0;
      Table.addRow({std::to_string(Shards), "v3+epoch(8)", "1",
                    formatDouble(BestSeconds, 4),
                    formatDouble(Speedup, 2) + "x",
                    std::to_string(PeakResident),
                    Identical ? "yes" : "NO"});
      Json += ",\n    {\"shards\": " + std::to_string(Shards) +
              ", \"pipeline\": \"v3_epoch8\", \"jobs\": 1"
              ", \"ingest_merge_seconds\": " + std::to_string(BestSeconds) +
              ", \"speedup\": " + std::to_string(Speedup) +
              ", \"peak_resident_profiles\": " +
              std::to_string(PeakResident) +
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
    Profile Merged = profile::loadAndMergeProfiles(FilesV3, Opts).Merged;
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
  std::cout << "\nv2 decode: " << formatDouble(DecodeV2, 4) << "s, v3 decode: "
            << formatDouble(DecodeV3, 4) << "s ("
            << formatDouble(DecodeV2 / (DecodeV3 > 0 ? DecodeV3 : 1), 2)
            << "x), v3 size: " << BytesV3 * 100 / (BytesV2 ? BytesV2 : 1)
            << "% of v2\n";
  std::cout << "Headline single-core speedup at " << MaxShards
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
