//===- core/Analyzer.h - StructSlim offline analyzer -----------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline analyzer (paper Secs. 4 and 5.2). Consumes a merged
/// profile and produces, per significant data object:
///   - the hot-data share l_d (Eq. 1) used to filter insignificant
///     objects,
///   - the inferred structure size (Eq. 5 over per-stream GCD strides,
///     Eqs. 2-3) and per-stream field offsets (Eq. 6),
///   - per-field latency decomposition (the paper's Table 5),
///   - per-loop latency shares and accessed-field sets (Table 6),
///   - the field-affinity matrix A_ij (Eq. 7) and its clustering into
///     suggested new structures (Fig. 6 / Figs. 7-13).
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CORE_ANALYZER_H
#define STRUCTSLIM_CORE_ANALYZER_H

#include "analysis/CodeMap.h"
#include "ir/StructLayout.h"
#include "profile/Profile.h"

#include <array>
#include <map>
#include <string>
#include <vector>

namespace structslim {
namespace core {

/// How high-affinity fields are grouped into new structures.
enum class ClusteringMethod : uint8_t {
  /// The paper's method: connect every pair with A_ij >= threshold,
  /// take connected components. Transitive: a 0-affinity pair can land
  /// together through a common neighbor.
  Threshold,
  /// Agglomerative average-linkage: repeatedly merge the two clusters
  /// with the highest mean pairwise affinity until it drops below the
  /// threshold. More conservative on chains (A-B, B-C strong, A-C
  /// weak); offered as an ablation of the paper's choice.
  Hierarchical,
};

/// Analyzer tuning knobs. Defaults follow the paper's practice.
struct AnalysisConfig {
  /// Investigate at most this many objects ("from our experiments, we
  /// only need to investigate the top three data structures").
  unsigned TopObjects = 3;
  /// Ignore objects below this share of total latency.
  double MinObjectShare = 0.01;
  /// Edges with affinity >= this threshold cluster fields together.
  double AffinityThreshold = 0.5;
  /// Streams need at least this many unique addresses before their GCD
  /// stride is trusted (Eq. 4: 10 gives > 99% accuracy, which is the
  /// paper's working threshold). Lowering this admits sparser streams;
  /// sizes inferred from them are flagged via
  /// ObjectAnalysis::LowConfidenceSize instead of being silently
  /// reported as exact.
  unsigned MinUniqueAddrs = 10;
  /// Field clustering algorithm.
  ClusteringMethod Clustering = ClusteringMethod::Threshold;
  /// Ignored; kept only because perfbench/ sets it. Analysis is one
  /// serial pass (the merge fan-out takes the job count instead).
  unsigned Jobs = 0;
};

/// Counters from one analyze() run, aggregated in object order.
struct AnalysisStats {
  uint64_t ObjectsConsidered = 0; ///< Objects present in the profile.
  uint64_t ObjectsAnalyzed = 0;   ///< Objects that passed the filters.
  uint64_t StreamsAnalyzed = 0;   ///< Streams of the analyzed objects.
  /// Streams whose representative address precedes their object base
  /// (possible after merging inconsistent shards): the Eq. 6 modulo
  /// would underflow, so they are skipped rather than attributed to a
  /// garbage field offset.
  uint64_t SkippedInconsistentStreams = 0;
  /// Analyzed objects whose inferred size is flagged low-confidence.
  uint64_t LowConfidenceSizes = 0;
  /// Strided streams excluded from Eq. 5 for falling below
  /// MinUniqueAddrs; their skipped stride evidence discounts the
  /// object's size confidence (see ObjectAnalysis::SizeConfidence).
  uint64_t SparseStreams = 0;
  /// Streams the bounded reservoir demonstrably starved: more samples
  /// were offered than kept, and the survivors fall below
  /// MinUniqueAddrs.
  uint64_t TruncatedStreams = 0;
  /// Analyzed objects with at least one reservoir-starved stream.
  uint64_t ReservoirTruncatedObjects = 0;
};

/// Latency decomposition for one inferred field (Table 5 row).
struct FieldStat {
  uint32_t Offset = 0;
  std::string Name; ///< From a registered layout, or "off<N>".
  uint32_t Size = 0; ///< Widest access observed at this offset.
  uint64_t LatencySum = 0;
  uint64_t SampleCount = 0;
  double LatencyShare = 0; ///< Of the object's total latency.
  /// Samples by serving level (cache::MemLevel order: L1/L2/L3/DRAM) —
  /// the PEBS-LL data-source decomposition.
  std::array<uint64_t, 4> LevelSamples{};
};

/// Per-loop view of one object (Table 6 row).
struct LoopStat {
  int32_t LoopId = -1;
  std::string LoopName; ///< "615-616" style source-line range.
  uint64_t LatencySum = 0;
  double LatencyShare = 0; ///< Of the object's total latency.
  std::vector<uint32_t> Offsets; ///< Fields accessed in this loop.
};

/// Everything StructSlim derives about one significant data object.
struct ObjectAnalysis {
  std::string Key;
  std::string Name;
  uint64_t LatencySum = 0;
  uint64_t SampleCount = 0;
  double HotShare = 0; ///< l_d, Eq. 1.
  uint64_t StructSize = 0; ///< Eq. 5; 0 when no strided stream exists.
  /// Probability the inferred size is exact, from the Eq. 4 accuracy
  /// model applied to the best-sampled contributing stream (1 - the
  /// chance every contributing stream's GCD is a common multiple).
  double SizeConfidence = 0;
  /// True when StructSize was inferred but its Eq. 4 confidence falls
  /// short of the paper's > 99% bar (fewer than ~10 unique addresses
  /// behind the best contributing stream). Reports must surface this
  /// instead of presenting the size as exact.
  bool LowConfidenceSize = false;
  /// Streams skipped because RepAddr < ObjectStart (see
  /// AnalysisStats::SkippedInconsistentStreams).
  uint64_t SkippedStreams = 0;
  /// Strided streams of this object excluded from Eq. 5 for falling
  /// below MinUniqueAddrs (their mass discounts SizeConfidence).
  uint64_t SparseStreams = 0;
  /// Streams of this object the bounded reservoir starved below
  /// MinUniqueAddrs (OfferedSamples > SampleCount, or any sparse
  /// stream when the profile records reservoir evictions — the
  /// conservative reading: a lossy run cannot distinguish "naturally
  /// sparse" from "truncated").
  uint64_t TruncatedStreams = 0;
  /// True when TruncatedStreams > 0: bounded sampling may have cost
  /// this object Eq. 4 confidence. Reports and advice must surface it —
  /// a reservoir run never silently changes a recommendation.
  bool ReservoirTruncated = false;
  uint64_t TlbMissSamples = 0; ///< Summed over this object's streams.
  std::vector<FieldStat> Fields; ///< Sorted by offset.
  std::vector<LoopStat> Loops;   ///< Sorted by latency, descending.
  /// Affinity matrix A_ij over Fields indices (symmetric, diag = 1).
  std::vector<std::vector<double>> Affinity;
  /// Field clusters (indices into Fields), hottest first — each is one
  /// suggested new structure.
  std::vector<std::vector<uint32_t>> Clusters;

  /// True when splitting is worthwhile (more than one cluster).
  bool splitRecommended() const { return Clusters.size() > 1; }

  const FieldStat *fieldAtOffset(uint32_t Offset) const {
    for (const FieldStat &F : Fields)
      if (F.Offset == Offset)
        return &F;
    return nullptr;
  }
};

/// Whole-program analysis outcome.
struct AnalysisResult {
  uint64_t TotalLatency = 0;
  uint64_t TotalSamples = 0;
  /// Significant objects, hottest first (filtered per AnalysisConfig).
  std::vector<ObjectAnalysis> Objects;
  /// Pipeline counters.
  AnalysisStats Stats;

  const ObjectAnalysis *findObject(const std::string &Name) const {
    for (const ObjectAnalysis &O : Objects)
      if (O.Name == Name)
        return &O;
    return nullptr;
  }
};

/// The StructSlim offline analyzer.
class StructSlimAnalyzer {
public:
  explicit StructSlimAnalyzer(const analysis::CodeMap &CodeMap,
                              AnalysisConfig Config = AnalysisConfig());

  /// Analyzer without a code map (e.g. the standalone report tool
  /// working from profile files alone): loops are labeled "loop<id>"
  /// instead of source-line ranges.
  explicit StructSlimAnalyzer(AnalysisConfig Config = AnalysisConfig());

  /// Registers the source-level layout of the struct stored in object
  /// \p ObjectName, used only to attach field names to inferred
  /// offsets when rendering reports (the analysis itself never reads
  /// it). Takes effect on the next analyze().
  void registerLayout(const std::string &ObjectName,
                      const ir::StructLayout &Layout);

  /// Runs the full analysis pipeline of Fig. 2 on \p Merged: one cold,
  /// serial pass over the selected objects. The analyzer keeps no state
  /// between calls, so concurrent analyze() calls on one analyzer are
  /// safe (registerLayout() must not run concurrently with them).
  AnalysisResult analyze(const profile::Profile &Merged) const;

  const AnalysisConfig &getConfig() const { return Config; }

private:
  void analyzeObject(const std::vector<const profile::StreamRecord *> &Streams,
                     bool ReservoirLossy, ObjectAnalysis &Out) const;
  void clusterFields(ObjectAnalysis &Out) const;

  const analysis::CodeMap *CodeMap = nullptr;
  AnalysisConfig Config;
  std::map<std::string, ir::StructLayout> Layouts;
};

} // namespace core
} // namespace structslim

#endif // STRUCTSLIM_CORE_ANALYZER_H
