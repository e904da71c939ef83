//===- core/Analyzer.cpp --------------------------------------*- C++ -*-===//

#include "core/Analyzer.h"

#include "core/AccuracyModel.h"
#include "core/StrideKernel.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <map>
#include <numeric>
#include <unordered_map>

using namespace structslim;
using namespace structslim::core;

StructSlimAnalyzer::StructSlimAnalyzer(const analysis::CodeMap &CodeMap,
                                       AnalysisConfig Config)
    : CodeMap(&CodeMap), Config(Config) {}

StructSlimAnalyzer::StructSlimAnalyzer(AnalysisConfig Config)
    : Config(Config) {}

void StructSlimAnalyzer::registerLayout(const std::string &ObjectName,
                                        const ir::StructLayout &Layout) {
  Layouts[ObjectName] = Layout;
}

AnalysisResult StructSlimAnalyzer::analyze(const profile::Profile &Merged) const {
  AnalysisResult Result;
  Result.TotalLatency = Merged.TotalLatency;
  Result.TotalSamples = Merged.TotalSamples;
  Result.Stats.ObjectsConsidered = Merged.Objects.size();
  if (Merged.TotalLatency == 0)
    return Result;

  // --- Pinpointing hot data (Sec. 4.1): rank objects by l_d. ---------
  std::vector<uint32_t> Order(Merged.Objects.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Merged.Objects[A].LatencySum > Merged.Objects[B].LatencySum;
  });

  // Group streams by object up front.
  std::vector<std::vector<const profile::StreamRecord *>> StreamsByObject(
      Merged.Objects.size());
  for (const profile::StreamRecord &S : Merged.Streams)
    StreamsByObject[S.ObjectIndex].push_back(&S);

  // A profile that recorded reservoir evictions is lossy: any sparse
  // stream may owe its sparseness to the reservoir, not the program.
  bool ReservoirLossy =
      Merged.ReservoirCapacity != 0 && Merged.ReservoirEvictions != 0;

  // Hottest first, until TopObjects or the first object below
  // MinObjectShare (sorted descending: everything after is colder).
  for (uint32_t ObjectIndex : Order) {
    if (Result.Objects.size() >= Config.TopObjects)
      break;
    const profile::ObjectAgg &Agg = Merged.Objects[ObjectIndex];
    double Share = static_cast<double>(Agg.LatencySum) / Merged.TotalLatency;
    if (Share < Config.MinObjectShare)
      break;
    ObjectAnalysis &O = Result.Objects.emplace_back();
    O.Key = Agg.Key;
    O.Name = Agg.Name;
    O.LatencySum = Agg.LatencySum;
    O.SampleCount = Agg.SampleCount;
    O.HotShare = Share;
    analyzeObject(StreamsByObject[ObjectIndex], ReservoirLossy, O);

    AnalysisStats &Stats = Result.Stats;
    ++Stats.ObjectsAnalyzed;
    Stats.StreamsAnalyzed += StreamsByObject[ObjectIndex].size();
    Stats.SkippedInconsistentStreams += O.SkippedStreams;
    if (O.LowConfidenceSize)
      ++Stats.LowConfidenceSizes;
    Stats.SparseStreams += O.SparseStreams;
    Stats.TruncatedStreams += O.TruncatedStreams;
    if (O.ReservoirTruncated)
      ++Stats.ReservoirTruncatedObjects;
  }
  return Result;
}

void StructSlimAnalyzer::analyzeObject(
    const std::vector<const profile::StreamRecord *> &Streams,
    bool ReservoirLossy, ObjectAnalysis &Out) const {
  // --- Structure size (Eq. 5): GCD over trustworthy stream strides. --
  // A stream participates when it shows a non-unit constant stride
  // pattern (stride larger than its own access width) backed by enough
  // unique addresses (Eq. 4 accuracy).
  uint64_t BestUnique = 0;
  double SparsePenalty = 1.0;
  std::vector<uint64_t> Strides;
  Strides.reserve(Streams.size());
  for (const profile::StreamRecord *S : Streams) {
    // A stream the reservoir demonstrably starved: more samples were
    // offered than survived. Under a lossy profile every sparse stream
    // is suspect — the reservoir cannot prove which evictions cost
    // unique addresses, so the conservative reading flags all of them.
    bool Truncated = S->OfferedSamples > S->SampleCount;
    if (S->UniqueAddrCount < Config.MinUniqueAddrs) {
      // Excluded from Eq. 5 — but not from the confidence model. A
      // sparse stream showing non-unit stride evidence still had a
      // chance of contradicting the inferred size; treating the
      // object's confidence as if it never existed over-trusts sparse
      // objects (each such stream's own Eq. 4 accuracy discounts the
      // reported confidence multiplicatively).
      if (S->StrideGcd > S->AccessSize && S->SampleCount != 0) {
        ++Out.SparseStreams;
        SparsePenalty *=
            eq4LowerBound(std::max<uint64_t>(S->UniqueAddrCount, 2));
      }
      if ((Truncated || (ReservoirLossy && S->SampleCount != 0))) {
        ++Out.TruncatedStreams;
        Out.ReservoirTruncated = true;
      }
      continue;
    }
    if (S->StrideGcd == 0 || S->StrideGcd <= S->AccessSize)
      continue; // Unit-stride or irregular: no splitting opportunity.
    Strides.push_back(S->StrideGcd);
    BestUnique = std::max(BestUnique, S->UniqueAddrCount);
  }
  // Four-lane binary-GCD fold; gcd's associativity makes the result
  // equal to the sequential gcd64 chain this replaced.
  uint64_t Size = gcdReduce(Strides.data(), Strides.size());
  Out.StructSize = Size;
  // Eq. 4 confidence: the inferred size can only be wrong (a multiple
  // of the truth) if every contributing stream's GCD is inflated; the
  // best-sampled stream bounds that probability. Skipped sparse
  // streams discount it — their stride evidence went unheard.
  Out.SizeConfidence = Size == 0 || BestUnique < 2
                           ? 0.0
                           : eq4LowerBound(BestUnique) * SparsePenalty;
  // The paper's bar: ~10 unique addresses put Eq. 4 above 99%. A size
  // inferred from sparser streams (config with MinUniqueAddrs < 10) is
  // still reported, but flagged so reports cannot present it as exact.
  // Reservoir truncation forces the flag: the unique-address counts
  // behind the size are reservoir-effective, not ground truth.
  Out.LowConfidenceSize =
      Size != 0 && (Out.SizeConfidence < 0.99 || Out.ReservoirTruncated);

  const ir::StructLayout *Layout = nullptr;
  if (auto It = Layouts.find(Out.Name); It != Layouts.end())
    Layout = &It->second;

  // --- Field identification (Eq. 6), one offset per stream. ----------
  // A stream whose representative address precedes its object base
  // (possible after merging inconsistent shards) would underflow the
  // unsigned Eq. 6 modulo into a garbage offset: skip it everywhere
  // below and count it.
  constexpr uint32_t SkippedOffset = ~0u;
  std::vector<uint32_t> StreamOffsets(Streams.size(), 0);
  for (size_t I = 0; I != Streams.size(); ++I) {
    const profile::StreamRecord *S = Streams[I];
    if (Size == 0)
      continue; // No aggregate structure detected: one logical field.
    if (S->RepAddr < S->ObjectStart) {
      StreamOffsets[I] = SkippedOffset;
      ++Out.SkippedStreams;
      continue;
    }
    StreamOffsets[I] =
        static_cast<uint32_t>((S->RepAddr - S->ObjectStart) % Size);
  }

  // --- Per-field aggregation (the map keeps fields offset-sorted). ---
  std::map<uint32_t, FieldStat> FieldsByOffset;
  for (size_t I = 0; I != Streams.size(); ++I) {
    if (StreamOffsets[I] == SkippedOffset)
      continue;
    const profile::StreamRecord *S = Streams[I];
    Out.TlbMissSamples += S->TlbMissSamples;
    FieldStat &F = FieldsByOffset[StreamOffsets[I]];
    F.Offset = StreamOffsets[I];
    F.LatencySum += S->LatencySum;
    F.SampleCount += S->SampleCount;
    for (size_t L = 0; L != F.LevelSamples.size(); ++L)
      F.LevelSamples[L] += S->LevelSamples[L];
    if (S->AccessSize > F.Size)
      F.Size = S->AccessSize;
  }
  for (auto &[Offset, F] : FieldsByOffset) {
    F.LatencyShare = Out.LatencySum == 0
                         ? 0.0
                         : static_cast<double>(F.LatencySum) / Out.LatencySum;
    if (Layout) {
      if (const ir::FieldDesc *D = Layout->fieldContaining(Offset))
        F.Name = D->Name;
    }
    if (F.Name.empty())
      F.Name = "off" + std::to_string(Offset);
    Out.Fields.push_back(F);
  }
  size_t NumFields = Out.Fields.size();

  // Dense offset -> field-index mapping: Fields are offset-sorted, so
  // the index doubles as the ascending-offset order the report relies
  // on.
  std::unordered_map<uint32_t, uint32_t> FieldIndexByOffset;
  FieldIndexByOffset.reserve(NumFields);
  for (uint32_t I = 0; I != NumFields; ++I)
    FieldIndexByOffset.emplace(Out.Fields[I].Offset, I);

  // --- Per-loop view (Table 6) with dense per-loop field vectors. ----
  // LoopsById keeps the loop-id order for naming and a stable sort;
  // the dense (latency, seen) vectors replace the old nested maps so
  // the Eq. 7 pass below is pure array arithmetic.
  std::map<int32_t, LoopStat> LoopsById;
  std::map<int32_t, size_t> LoopIndexById;
  std::vector<std::vector<uint64_t>> LoopFieldLatency; // [loop][field]
  std::vector<std::vector<uint8_t>> LoopFieldSeen;     // [loop][field]
  for (size_t I = 0; I != Streams.size(); ++I) {
    if (StreamOffsets[I] == SkippedOffset)
      continue;
    const profile::StreamRecord *S = Streams[I];
    LoopStat &L = LoopsById[S->LoopId];
    L.LoopId = S->LoopId;
    L.LatencySum += S->LatencySum;
    auto [It, New] = LoopIndexById.try_emplace(S->LoopId,
                                               LoopFieldLatency.size());
    if (New) {
      LoopFieldLatency.emplace_back(NumFields, 0);
      LoopFieldSeen.emplace_back(NumFields, 0);
    }
    uint32_t FieldIndex = FieldIndexByOffset[StreamOffsets[I]];
    LoopFieldLatency[It->second][FieldIndex] += S->LatencySum;
    LoopFieldSeen[It->second][FieldIndex] = 1;
  }
  for (auto &[LoopId, L] : LoopsById) {
    L.LatencyShare = Out.LatencySum == 0
                         ? 0.0
                         : static_cast<double>(L.LatencySum) / Out.LatencySum;
    if (LoopId < 0)
      L.LoopName = "<no loop>";
    else if (CodeMap &&
             static_cast<size_t>(LoopId) < CodeMap->loops().size())
      L.LoopName = CodeMap->getLoop(static_cast<uint32_t>(LoopId)).name();
    else
      L.LoopName = "loop" + std::to_string(LoopId);
    const std::vector<uint8_t> &Seen = LoopFieldSeen[LoopIndexById[LoopId]];
    for (uint32_t FieldIndex = 0; FieldIndex != NumFields; ++FieldIndex)
      if (Seen[FieldIndex])
        L.Offsets.push_back(Out.Fields[FieldIndex].Offset);
    Out.Loops.push_back(L);
  }
  std::stable_sort(Out.Loops.begin(), Out.Loops.end(),
                   [](const LoopStat &A, const LoopStat &B) {
                     return A.LatencySum > B.LatencySum;
                   });

  // --- Affinity (Eq. 7) over fields, then clustering. -----------------
  // Accumulate the common-loop latency sums lc_ij per loop over just
  // that loop's fields: O(sum over loops of F_loop^2) integer adds plus
  // one O(F^2) division pass, instead of two map probes per
  // (field-pair, loop). Integer sums are order-exact, so the result is
  // bit-identical to the nested-map formulation.
  Out.Affinity.assign(NumFields, std::vector<double>(NumFields, 0.0));
  for (size_t I = 0; I != NumFields; ++I)
    Out.Affinity[I][I] = 1.0;

  std::vector<uint64_t> Common(NumFields * NumFields, 0);
  std::vector<uint32_t> LoopFields; // Fields present in one loop.
  for (size_t Loop = 0; Loop != LoopFieldLatency.size(); ++Loop) {
    LoopFields.clear();
    for (uint32_t FieldIndex = 0; FieldIndex != NumFields; ++FieldIndex)
      if (LoopFieldSeen[Loop][FieldIndex])
        LoopFields.push_back(FieldIndex);
    const std::vector<uint64_t> &Latency = LoopFieldLatency[Loop];
    for (size_t A = 0; A != LoopFields.size(); ++A)
      for (size_t B = A + 1; B != LoopFields.size(); ++B)
        Common[LoopFields[A] * NumFields + LoopFields[B]] +=
            Latency[LoopFields[A]] + Latency[LoopFields[B]];
  }
  for (size_t I = 0; I != NumFields; ++I) {
    for (size_t J = I + 1; J != NumFields; ++J) {
      uint64_t Total = Out.Fields[I].LatencySum + Out.Fields[J].LatencySum;
      double A = Total == 0 ? 0.0
                            : static_cast<double>(Common[I * NumFields + J]) /
                                  Total;
      Out.Affinity[I][J] = Out.Affinity[J][I] = A;
    }
  }

  clusterFields(Out);
}

namespace {

/// The paper's clustering: threshold the affinity graph, take
/// connected components.
std::vector<std::vector<uint32_t>>
thresholdClusters(const ObjectAnalysis &Out, double Threshold) {
  size_t NumFields = Out.Fields.size();
  std::vector<uint32_t> Parent(NumFields);
  std::iota(Parent.begin(), Parent.end(), 0u);
  std::function<uint32_t(uint32_t)> Find = [&](uint32_t X) -> uint32_t {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  for (size_t I = 0; I != NumFields; ++I)
    for (size_t J = I + 1; J != NumFields; ++J)
      if (Out.Affinity[I][J] >= Threshold)
        Parent[Find(static_cast<uint32_t>(I))] =
            Find(static_cast<uint32_t>(J));

  std::map<uint32_t, std::vector<uint32_t>> Components;
  for (size_t I = 0; I != NumFields; ++I)
    Components[Find(static_cast<uint32_t>(I))].push_back(
        static_cast<uint32_t>(I));
  std::vector<std::vector<uint32_t>> Clusters;
  for (auto &[Root, Members] : Components)
    Clusters.push_back(std::move(Members));
  return Clusters;
}

/// Agglomerative average-linkage alternative: merge the best cluster
/// pair while its mean pairwise affinity clears the threshold.
std::vector<std::vector<uint32_t>>
hierarchicalClusters(const ObjectAnalysis &Out, double Threshold) {
  std::vector<std::vector<uint32_t>> Clusters;
  for (uint32_t I = 0; I != Out.Fields.size(); ++I)
    Clusters.push_back({I});

  auto Linkage = [&](const std::vector<uint32_t> &A,
                     const std::vector<uint32_t> &B) {
    double Sum = 0;
    for (uint32_t X : A)
      for (uint32_t Y : B)
        Sum += Out.Affinity[X][Y];
    return Sum / (static_cast<double>(A.size()) * B.size());
  };

  for (;;) {
    double Best = -1;
    size_t BestA = 0, BestB = 0;
    for (size_t A = 0; A != Clusters.size(); ++A)
      for (size_t B = A + 1; B != Clusters.size(); ++B) {
        double Link = Linkage(Clusters[A], Clusters[B]);
        if (Link > Best) {
          Best = Link;
          BestA = A;
          BestB = B;
        }
      }
    if (Best < Threshold || Clusters.size() < 2)
      break;
    Clusters[BestA].insert(Clusters[BestA].end(), Clusters[BestB].begin(),
                           Clusters[BestB].end());
    Clusters.erase(Clusters.begin() + static_cast<ptrdiff_t>(BestB));
  }
  return Clusters;
}

} // namespace

void StructSlimAnalyzer::clusterFields(ObjectAnalysis &Out) const {
  size_t NumFields = Out.Fields.size();
  if (NumFields == 0)
    return;

  Out.Clusters = Config.Clustering == ClusteringMethod::Hierarchical
                     ? hierarchicalClusters(Out, Config.AffinityThreshold)
                     : thresholdClusters(Out, Config.AffinityThreshold);
  for (std::vector<uint32_t> &Members : Out.Clusters)
    std::sort(Members.begin(), Members.end(),
              [&](uint32_t A, uint32_t B) {
                return Out.Fields[A].Offset < Out.Fields[B].Offset;
              });
  // Hottest cluster first.
  std::stable_sort(Out.Clusters.begin(), Out.Clusters.end(),
                   [&](const std::vector<uint32_t> &A,
                       const std::vector<uint32_t> &B) {
                     auto Heat = [&](const std::vector<uint32_t> &C) {
                       uint64_t Sum = 0;
                       for (uint32_t I : C)
                         Sum += Out.Fields[I].LatencySum;
                       return Sum;
                     };
                     return Heat(A) > Heat(B);
                   });
}
