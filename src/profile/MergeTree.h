//===- profile/MergeTree.h - Reduction-tree profile merge ------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Merges per-thread profiles with a reduction tree (paper Sec. 5.2,
/// citing Tallent et al.'s scalable call-path merging): profiles are
/// combined pairwise level by level.
///
/// The canonical tree pairs ADJACENT profiles — (0,1), (2,3), ... with
/// an odd tail promoted unmerged — because that shape can be produced
/// incrementally: a binary-counter accumulator that merges equal-weight
/// subtrees as shards arrive in file order yields exactly the same
/// tree. Profile::merge is not associative (cross-profile RepAddr
/// differences sharpen stride GCDs, Sec. 4.4), so the tree shape is
/// part of the output contract; both paths through this file — the
/// in-memory level tree and streaming accumulation at any job count —
/// reproduce this one shape bit for bit.
///
/// The in-memory merge runs serially on the calling thread. The
/// file-loading front end streams: shards decode in parallel on the
/// shared support::ThreadPool while the coordinator consumes them in
/// file order and folds them into the accumulator, so at most O(jobs)
/// decoded shards are resident at once (plus the accumulator's
/// O(log shards) stack) instead of the whole input set.
///
/// Loading degrades gracefully: per-thread shards are written without
/// synchronization and can be truncated, corrupted, or missing at merge
/// time (the PROMPT/BOLT failure model), so a bad shard is skipped with
/// a structured report and the surviving shards merge normally — any
/// subset of a job's threads is a well-defined merge input. Strict mode
/// restores hard failure for callers that need all-or-nothing
/// semantics.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PROFILE_MERGETREE_H
#define STRUCTSLIM_PROFILE_MERGETREE_H

#include "profile/Profile.h"

#include <cstddef>
#include <string>
#include <vector>

namespace structslim {
namespace profile {

/// Merges all \p Profiles into one along the canonical adjacent-pair
/// tree, serially on the calling thread. Consumes the input vector.
/// \p WorkerThreads is ignored; kept only because perfbench/ sets it.
Profile mergeProfiles(std::vector<Profile> Profiles,
                      unsigned WorkerThreads = 0);

/// Knobs for the shard-loading front end.
struct MergeOptions {
  /// In strict mode the first unreadable shard (in file order) aborts
  /// the load: the result's StrictFailure is set, Skipped holds exactly
  /// that shard, and Loaded/Merged are left empty — a strict failure
  /// never exposes a partial merge. Otherwise bad shards are skipped
  /// and reported in MergeLoadResult::Skipped.
  bool Strict = false;
  /// Decode parallelism of the streaming loader; 0 sizes from
  /// ThreadPool::defaultThreadCount(), which also caps any larger
  /// request (the shared pool has no more workers than that).
  unsigned WorkerThreads = 0;
};

/// One shard that could not be loaded, and why.
struct ShardFailure {
  std::string Path;
  std::string Message;
};

/// Outcome of loadAndMergeProfiles.
struct MergeLoadResult {
  Profile Merged;                    ///< Merge of the loaded shards.
  std::vector<std::string> Loaded;   ///< Paths merged, in input order.
  std::vector<ShardFailure> Skipped; ///< Shards dropped (or, in strict
                                     ///< mode, the one that aborted).
  bool StrictFailure = false;        ///< Strict mode hit a bad shard.
  /// Decode jobs the load ran with: WorkerThreads (0 = auto) capped at
  /// ThreadPool::defaultThreadCount().
  unsigned Jobs = 0;

  // --- Pipeline observability (for --stats / --json timing) ---------
  /// Aggregate wall time spent decoding shards, summed across worker
  /// threads (can exceed elapsed time when decodes overlap).
  double LoadSeconds = 0;
  /// Wall time the coordinator spent folding decoded shards into the
  /// merge accumulator.
  double ReduceSeconds = 0;
  /// High-water mark of simultaneously resident decoded profiles
  /// (decoded-but-unmerged shards plus the accumulator stack). Bounded
  /// by O(jobs + log shards) — the point of streaming.
  size_t PeakResidentProfiles = 0;
};

/// Reads every shard in \p Files (via profile::readProfileFile, so
/// fault injection applies) and merges the readable ones, streaming:
/// decodes run ahead on the thread pool within a bounded window while
/// the coordinator consumes results in file order and folds them into
/// a binary-counter stack of merged subtrees (the canonical tree's
/// frontier), so at most O(jobs + log2 shards) profiles are resident.
/// A merge of a partial thread set is well-defined — totals cover
/// exactly the shards in Loaded. The fault-injection site
/// support::FaultSite::MergeShardAlloc models a failed allocation
/// while buffering a loaded shard; it reports like a load failure.
/// When any fault site is armed, decoding falls back to serial so the
/// deterministic hit-order contract of the injector (hit N == file N)
/// is preserved; results are identical either way.
MergeLoadResult loadAndMergeProfiles(const std::vector<std::string> &Files,
                                     const MergeOptions &Opts = {});

} // namespace profile
} // namespace structslim

#endif // STRUCTSLIM_PROFILE_MERGETREE_H
