//===- tests/profile_test.cpp - Profile model / IO / merge -----*- C++ -*-===//

#include "profile/MergeTree.h"
#include "profile/Profile.h"
#include "profile/ProfileIO.h"
#include "support/Checksum.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace structslim;
using namespace structslim::profile;

namespace {

/// A profile with one object and one stream, parameterized enough to
/// exercise merge rules.
Profile makeSimple(uint32_t Thread, uint64_t Latency, uint64_t Gcd,
                   uint64_t Rep, uint64_t ObjectStart = 0x1000) {
  Profile P;
  P.ThreadId = Thread;
  P.SamplePeriod = 10000;
  P.TotalSamples = 5;
  P.TotalLatency = Latency;
  uint32_t Obj = P.getOrCreateObject("arr");
  P.Objects[Obj].Name = "arr";
  P.Objects[Obj].Start = ObjectStart;
  P.Objects[Obj].Size = 640;
  P.Objects[Obj].SampleCount = 5;
  P.Objects[Obj].LatencySum = Latency;
  StreamRecord &S = P.getOrCreateStream(0x400100, Obj);
  S.LoopId = 2;
  S.Line = 10;
  S.AccessSize = 8;
  S.SampleCount = 5;
  S.LatencySum = Latency;
  S.UniqueAddrCount = 4;
  S.StrideGcd = Gcd;
  S.RepAddr = Rep;
  S.LastAddr = Rep;
  S.ObjectStart = ObjectStart;
  S.LevelSamples = {3, 1, 1, 0};
  return P;
}

} // namespace

TEST(Profile, GetOrCreateObjectIsIdempotent) {
  Profile P;
  uint32_t A = P.getOrCreateObject("x");
  uint32_t B = P.getOrCreateObject("y");
  EXPECT_NE(A, B);
  EXPECT_EQ(P.getOrCreateObject("x"), A);
  EXPECT_EQ(P.Objects.size(), 2u);
}

TEST(Profile, GetOrCreateStreamKeyedByIpAndObject) {
  Profile P;
  uint32_t O1 = P.getOrCreateObject("a");
  uint32_t O2 = P.getOrCreateObject("b");
  StreamRecord &S1 = P.getOrCreateStream(100, O1);
  S1.SampleCount = 1;
  StreamRecord &S2 = P.getOrCreateStream(100, O2);
  S2.SampleCount = 2;
  StreamRecord &S3 = P.getOrCreateStream(200, O1);
  S3.SampleCount = 3;
  EXPECT_EQ(P.Streams.size(), 3u);
  EXPECT_EQ(P.getOrCreateStream(100, O1).SampleCount, 1u);
  EXPECT_EQ(P.getOrCreateStream(100, O2).SampleCount, 2u);
}

TEST(Profile, FindObject) {
  Profile P;
  P.getOrCreateObject("k");
  EXPECT_NE(P.findObject("k"), nullptr);
  EXPECT_EQ(P.findObject("missing"), nullptr);
}

TEST(ProfileMerge, MetadataAdds) {
  Profile A = makeSimple(0, 100, 64, 0x1040);
  Profile B = makeSimple(1, 50, 64, 0x1080);
  A.merge(B);
  EXPECT_EQ(A.TotalSamples, 10u);
  EXPECT_EQ(A.TotalLatency, 150u);
  ASSERT_EQ(A.Objects.size(), 1u);
  EXPECT_EQ(A.Objects[0].SampleCount, 10u);
  EXPECT_EQ(A.Objects[0].LatencySum, 150u);
}

TEST(ProfileMerge, StreamsCombineByGcd) {
  // Thread A saw stride gcd 128, thread B 192; gcd(128,192) = 64, and
  // the representative-address difference sharpens it further.
  Profile A = makeSimple(0, 100, 128, 0x1000);
  Profile B = makeSimple(1, 50, 192, 0x1040);
  A.merge(B);
  ASSERT_EQ(A.Streams.size(), 1u);
  // gcd(128, 192) = 64; |0x1000 - 0x1040| = 64; stays 64.
  EXPECT_EQ(A.Streams[0].StrideGcd, 64u);
  EXPECT_EQ(A.Streams[0].SampleCount, 10u);
  EXPECT_EQ(A.Streams[0].LevelSamples[0], 6u);
}

TEST(ProfileMerge, RepDiffSharpensGcd) {
  // Both profiles report gcd 0 (one unique address each), but their
  // representative addresses differ by 64: the merged stream learns
  // stride 64, as Sec. 4.4's cross-profile aggregation intends.
  Profile A = makeSimple(0, 10, 0, 0x1000);
  Profile B = makeSimple(1, 10, 0, 0x1040);
  A.merge(B);
  EXPECT_EQ(A.Streams[0].StrideGcd, 64u);
}

TEST(ProfileMerge, DifferentInstancesDoNotMixAddresses) {
  // Same allocation site but different object instances (different
  // start addresses): rep-address differences are meaningless and must
  // not contaminate the gcd.
  Profile A = makeSimple(0, 10, 128, 0x1010, /*ObjectStart=*/0x1000);
  Profile B = makeSimple(1, 10, 128, 0x2013, /*ObjectStart=*/0x2000);
  A.merge(B);
  EXPECT_EQ(A.Streams[0].StrideGcd, 128u);
}

TEST(ProfileMerge, DisjointStreamsConcatenate) {
  Profile A = makeSimple(0, 100, 64, 0x1040);
  Profile B;
  B.TotalSamples = 1;
  B.TotalLatency = 4;
  uint32_t Obj = B.getOrCreateObject("other");
  B.Objects[Obj].Name = "other";
  StreamRecord &S = B.getOrCreateStream(0x400200, Obj);
  S.SampleCount = 1;
  S.LatencySum = 4;
  A.merge(B);
  EXPECT_EQ(A.Objects.size(), 2u);
  EXPECT_EQ(A.Streams.size(), 2u);
  // Object indices were remapped into A's table.
  const StreamRecord &Merged = A.Streams[1];
  EXPECT_EQ(A.Objects[Merged.ObjectIndex].Key, "other");
}

TEST(ProfileMerge, EmptyIntoEmpty) {
  Profile A, B;
  A.merge(B);
  EXPECT_EQ(A.TotalSamples, 0u);
  EXPECT_TRUE(A.Objects.empty());
}

// --- Serialization -----------------------------------------------------------

TEST(ProfileIO, RoundTrip) {
  Profile P = makeSimple(3, 123, 64, 0x1040);
  P.Instructions = 1000;
  P.MemoryAccesses = 500;
  P.Cycles = 9999;
  P.UnattributedLatency = 7;
  std::string Text = profileToString(P);
  std::string Error;
  auto Back = profileFromString(Text, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->ThreadId, 3u);
  EXPECT_EQ(Back->SamplePeriod, 10000u);
  EXPECT_EQ(Back->TotalLatency, 123u);
  EXPECT_EQ(Back->UnattributedLatency, 7u);
  EXPECT_EQ(Back->Cycles, 9999u);
  ASSERT_EQ(Back->Objects.size(), 1u);
  EXPECT_EQ(Back->Objects[0].Key, "arr");
  ASSERT_EQ(Back->Streams.size(), 1u);
  EXPECT_EQ(Back->Streams[0].StrideGcd, 64u);
  EXPECT_EQ(Back->Streams[0].LevelSamples[0], 3u);
  // Indices re-established: the stream can be found again.
  EXPECT_EQ(Back->getOrCreateStream(0x400100, 0).SampleCount, 5u);
}

TEST(ProfileIO, RoundTripThenMergeEqualsDirectMerge) {
  Profile A = makeSimple(0, 100, 128, 0x1000);
  Profile B = makeSimple(1, 50, 192, 0x1040);
  Profile Direct = makeSimple(0, 100, 128, 0x1000);
  Direct.merge(B);

  auto A2 = profileFromString(profileToString(A));
  auto B2 = profileFromString(profileToString(B));
  ASSERT_TRUE(A2 && B2);
  A2->merge(*B2);
  EXPECT_EQ(profileToString(*A2), profileToString(Direct));
}

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// \p Shard with the last \p Drop bytes of its meta section (the first
/// payload section) removed, and the meta size, meta CRC and header CRC
/// rewritten to match: v3 layout is the magic line, a u32 section count,
/// per section {u64 bytes, u64 records, u32 crc}, and a u32 header CRC.
std::string dropMetaTail(std::string Shard, size_t Drop) {
  auto LE = [&](size_t At, uint64_t V, unsigned N) {
    for (unsigned B = 0; B != N; ++B)
      Shard[At + B] = static_cast<char>(V >> (8 * B));
  };
  auto ReadLE = [&](size_t At, unsigned N) {
    uint64_t V = 0;
    for (unsigned B = 0; B != N; ++B)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Shard[At + B]))
           << (8 * B);
    return V;
  };
  const size_t Hdr = std::string("structslim-profile v3\n").size();
  unsigned Sections = static_cast<unsigned>(ReadLE(Hdr, 4));
  size_t HeaderBytes = 4 + Sections * 20 + 4;
  size_t MetaAt = Hdr + HeaderBytes;
  uint64_t MetaBytes = ReadLE(Hdr + 4, 8) - Drop;
  Shard.erase(MetaAt + MetaBytes, Drop);
  LE(Hdr + 4, MetaBytes, 8);
  LE(Hdr + 4 + 16, support::crc32(Shard.data() + MetaAt, MetaBytes), 4);
  LE(Hdr + HeaderBytes - 4, support::crc32(Shard.data() + Hdr, HeaderBytes - 4),
     4);
  return Shard;
}

} // namespace

// A v3 shard from a writer that stamped four decoupled-pipeline
// counters (queue depth 8192, producer stalls 6, consumer batches 7,
// queue capacity 8192) after the eight meta fields. The counters are
// retired, but the shard must keep loading with the extras discarded:
// its canonical text equals the one that writer produced, and the
// current writer drops the four varints (2 + 1 + 1 + 2 bytes).
TEST(ProfileIO, LoadsShardWithRetiredPipelineCounters) {
  std::string Dir = STRUCTSLIM_TEST_DATA;
  std::string Shard = slurp(Dir + "/tsp_pipeline.thread0.structslim");
  ASSERT_EQ(Shard.rfind("structslim-profile v3\n", 0), 0u);
  std::string Error;
  auto P = readProfileFile(Dir + "/tsp_pipeline.thread0.structslim", &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  EXPECT_EQ(P->TotalSamples, 45u);
  EXPECT_EQ(profileToString(*P, 1), slurp(Dir + "/tsp_pipeline.thread0.v1"));
  std::string Rewritten = profileToString(*P);
  EXPECT_EQ(Shard.size() - Rewritten.size(), 6u);
  auto Back = profileFromString(Rewritten, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(profileToString(*Back), Rewritten);
}

// The meta record may carry 8, 11 or 12 fields (the writers that
// existed); 9 or 10 fields match no writer and stay malformed.
TEST(ProfileIO, MetaRecordAcceptsEightElevenOrTwelveFields) {
  std::string Dir = STRUCTSLIM_TEST_DATA;
  std::string Shard = slurp(Dir + "/tsp_pipeline.thread0.structslim");
  std::string Canonical = slurp(Dir + "/tsp_pipeline.thread0.v1");
  // Trailing varints: 8192 (2 bytes), 6, 7, 8192 (2 bytes).
  for (auto [Drop, Fields] : {std::pair<size_t, int>{0, 12}, {2, 11}, {6, 8}}) {
    std::string Error;
    auto P = profileFromString(dropMetaTail(Shard, Drop), &Error);
    ASSERT_TRUE(P.has_value()) << Fields << " fields: " << Error;
    EXPECT_EQ(profileToString(*P, 1), Canonical) << Fields << " fields";
  }
  for (auto [Drop, Fields] : {std::pair<size_t, int>{3, 10}, {4, 9}}) {
    std::string Error;
    EXPECT_FALSE(profileFromString(dropMetaTail(Shard, Drop), &Error))
        << Fields << " fields";
    EXPECT_NE(Error.find("meta"), std::string::npos) << Error;
  }
}

TEST(ProfileIO, RejectsMissingMagic) {
  std::string Error;
  EXPECT_FALSE(profileFromString("garbage\n", &Error).has_value());
  EXPECT_NE(Error.find("magic"), std::string::npos);
}

TEST(ProfileIO, RejectsUnknownRecord) {
  std::string Error;
  std::string Text = "structslim-profile v1\nmeta 0 1 0 0 0 0 0 0\nwat 1\n";
  EXPECT_FALSE(profileFromString(Text, &Error).has_value());
  EXPECT_NE(Error.find("unknown record"), std::string::npos);
}

TEST(ProfileIO, RejectsDanglingStream) {
  std::string Error;
  std::string Text = "structslim-profile v1\nmeta 0 1 0 0 0 0 0 0\n"
                     "stream 5 3 0 0 8 1 1 1 0 0 0 0 0 0 0 0 0\n";
  EXPECT_FALSE(profileFromString(Text, &Error).has_value());
  EXPECT_NE(Error.find("unknown object"), std::string::npos);
}

TEST(ProfileIO, RejectsMissingMeta) {
  std::string Error;
  EXPECT_FALSE(
      profileFromString("structslim-profile v1\n", &Error).has_value());
  EXPECT_NE(Error.find("no meta"), std::string::npos);
}

// --- Reduction tree -----------------------------------------------------------

TEST(MergeTree, EmptyInput) {
  Profile P = mergeProfiles({});
  EXPECT_EQ(P.TotalSamples, 0u);
}

TEST(MergeTree, SingleProfilePassesThrough) {
  std::vector<Profile> In;
  In.push_back(makeSimple(0, 100, 64, 0x1040));
  Profile Out = mergeProfiles(std::move(In));
  EXPECT_EQ(Out.TotalLatency, 100u);
}

TEST(MergeTree, TotalsIndependentOfCount) {
  for (size_t Count : {2u, 3u, 4u, 5u, 8u, 13u}) {
    std::vector<Profile> In;
    uint64_t WantLatency = 0;
    for (size_t I = 0; I != Count; ++I) {
      In.push_back(makeSimple(static_cast<uint32_t>(I), 10 * (I + 1), 64,
                              0x1000 + 64 * I));
      WantLatency += 10 * (I + 1);
    }
    Profile Out = mergeProfiles(std::move(In));
    EXPECT_EQ(Out.TotalLatency, WantLatency) << Count << " profiles";
    EXPECT_EQ(Out.TotalSamples, 5 * Count);
    ASSERT_EQ(Out.Streams.size(), 1u);
    EXPECT_EQ(Out.Streams[0].StrideGcd, 64u);
  }
}

TEST(MergeTree, ParallelMatchesSerial) {
  auto Build = [] {
    std::vector<Profile> In;
    for (uint32_t I = 0; I != 9; ++I)
      In.push_back(makeSimple(I, 7 * (I + 1), 64 << (I % 3),
                              0x1000 + 64 * I));
    return In;
  };
  Profile Serial = mergeProfiles(Build(), 1);
  Profile Parallel = mergeProfiles(Build(), 4);
  EXPECT_EQ(Serial.TotalLatency, Parallel.TotalLatency);
  EXPECT_EQ(Serial.TotalSamples, Parallel.TotalSamples);
  ASSERT_EQ(Serial.Streams.size(), Parallel.Streams.size());
  EXPECT_EQ(Serial.Streams[0].StrideGcd, Parallel.Streams[0].StrideGcd);
  EXPECT_EQ(Serial.Streams[0].SampleCount, Parallel.Streams[0].SampleCount);
}
