//===- profile/MergeTree.cpp ----------------------------------*- C++ -*-===//

#include "profile/MergeTree.h"

#include "profile/ProfileIO.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

using namespace structslim;
using namespace structslim::profile;

namespace {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

} // namespace

Profile structslim::profile::mergeProfiles(std::vector<Profile> Profiles,
                                           unsigned /*WorkerThreads*/) {
  if (Profiles.empty())
    return Profile();

  // Hash every distinct object key string exactly once for the whole
  // batch; the merges below then match objects by u32 id through
  // epoch-tagged scratch tables — the allocation-free hot path.
  ObjectKeyInterner Interner;
  for (Profile &P : Profiles)
    P.internObjectKeys(Interner);

  // Reduce adjacent pairs level by level; an odd tail is promoted
  // unmerged. This is the canonical tree shape (see MergeTree.h).
  MergeScratch Scratch;
  while (Profiles.size() > 1) {
    size_t Pairs = Profiles.size() / 2;
    bool Odd = (Profiles.size() & 1) != 0;
    for (size_t I = 0; I != Pairs; ++I)
      Profiles[2 * I].merge(Profiles[2 * I + 1], Scratch);
    // Compact the survivors to the front (index 0 is already home).
    for (size_t I = 1; I != Pairs; ++I)
      Profiles[I] = std::move(Profiles[2 * I]);
    if (Odd)
      Profiles[Pairs] = std::move(Profiles.back());
    Profiles.resize(Pairs + (Odd ? 1 : 0));
  }
  return std::move(Profiles.front());
}

//===----------------------------------------------------------------------===//
// Streaming loader
//===----------------------------------------------------------------------===//

namespace {

/// The canonical tree built incrementally: a binary counter of merged
/// subtrees with strictly decreasing leaf counts, i.e. the frontier of
/// the adjacent-pair tree over the shards pushed so far.
class TreeAccumulator {
public:
  /// Pushes one leaf, then merges equal-weight neighbors until the
  /// strictly-decreasing-weight invariant holds again.
  void push(Profile P) {
    Stack.push_back({std::move(P), 1});
    while (Stack.size() >= 2 &&
           Stack[Stack.size() - 2].Weight == Stack.back().Weight) {
      Entry Top = std::move(Stack.back());
      Stack.pop_back();
      Stack.back().P.merge(Top.P, Scratch);
      Stack.back().Weight *= 2;
    }
  }

  /// Resident merged subtrees — at most log2(leaves) + 1.
  size_t size() const { return Stack.size(); }

  /// Right-folds the stack from the top, which matches the odd-tail
  /// promotion rule of the canonical tree. Empty profile for no leaves.
  Profile take() {
    if (Stack.empty())
      return Profile();
    while (Stack.size() > 1) {
      Entry Top = std::move(Stack.back());
      Stack.pop_back();
      Stack.back().P.merge(Top.P, Scratch);
    }
    return std::move(Stack.back().P);
  }

private:
  struct Entry {
    Profile P;
    uint64_t Weight = 0; ///< Leaf count, always a power of two.
  };
  std::vector<Entry> Stack;
  MergeScratch Scratch;
};

/// Decodes shards ahead of the fold on the shared pool: a window of at
/// most 2 * Jobs tasks in flight — enough look-ahead to keep every
/// worker busy while the coordinator folds, bounded so memory stays
/// O(jobs) — consumed strictly in file order.
class DecodeWindow {
public:
  DecodeWindow(const std::vector<std::string> &Files, unsigned Jobs)
      : Files(Files), Slots(Files.size()) {
    size_t Window = std::min<size_t>(Files.size(), 2 * (size_t)Jobs);
    std::lock_guard<std::mutex> Lock(Mutex);
    while (Issued < Window)
      issue();
  }

  /// Tasks reference this object; every exit path drains first.
  ~DecodeWindow() {
    std::unique_lock<std::mutex> Lock(Mutex);
    SlotDone.wait(Lock, [&] { return Completed == Issued; });
  }
  DecodeWindow(const DecodeWindow &) = delete;
  DecodeWindow &operator=(const DecodeWindow &) = delete;

  /// Waits for shard \p I (the next in file order), hands over its
  /// decode and issues the next file into the window. \p Resident is
  /// the number of decoded-but-unfolded shards, this one included.
  std::optional<Profile> take(size_t I, std::string &Error, double &Seconds,
                              size_t &Resident) {
    std::unique_lock<std::mutex> Lock(Mutex);
    SlotDone.wait(Lock, [&] { return Slots[I].Done; });
    Slot &S = Slots[I];
    Error = std::move(S.Error);
    Seconds = S.Seconds;
    Resident = ResidentDecoded;
    if (S.P)
      --ResidentDecoded;
    if (Issued < Files.size())
      issue();
    return std::move(S.P);
  }

private:
  struct Slot {
    std::optional<Profile> P;
    std::string Error;
    double Seconds = 0;
    bool Done = false;
  };

  /// Submits the next file's decode. Mutex held.
  void issue() {
    size_t I = Issued++;
    support::ThreadPool::global().submit([this, I] {
      auto Start = Clock::now();
      std::string Error;
      std::optional<Profile> P = readProfileFile(Files[I], &Error);
      double Seconds = secondsSince(Start);
      // Notify under the lock: the destructor may run as soon as it
      // sees Completed == Issued, so an unlocked notify could land on
      // a dead condvar.
      std::lock_guard<std::mutex> Lock(Mutex);
      Slots[I] = {std::move(P), std::move(Error), Seconds, true};
      ++Completed;
      if (Slots[I].P)
        ++ResidentDecoded;
      SlotDone.notify_all();
    });
  }

  const std::vector<std::string> &Files;
  std::vector<Slot> Slots;
  std::mutex Mutex;
  std::condition_variable SlotDone;
  size_t Issued = 0;
  size_t Completed = 0;       ///< Tasks finished (guarded by Mutex).
  size_t ResidentDecoded = 0; ///< Done slots still holding a profile.
};

} // namespace

MergeLoadResult
structslim::profile::loadAndMergeProfiles(const std::vector<std::string> &Files,
                                          const MergeOptions &Opts) {
  MergeLoadResult Result;
  unsigned PoolJobs = support::ThreadPool::defaultThreadCount();
  Result.Jobs = Opts.WorkerThreads ? std::min(Opts.WorkerThreads, PoolJobs)
                                   : PoolJobs;
  support::FaultInjector &Injector = support::FaultInjector::instance();

  // Shards decode on the pool unless that cannot help (one job, one
  // file) or fault injection is armed: the injector's hit-order
  // contract (hit N is file N) needs decodes in file order. Either way
  // the fold below sees the same sequence, so the output is identical.
  std::optional<DecodeWindow> Window;
  if (Result.Jobs > 1 && Files.size() > 1 && !Injector.anyArmed())
    Window.emplace(Files, Result.Jobs);

  ObjectKeyInterner Interner;
  TreeAccumulator Tree;
  for (size_t I = 0; I != Files.size(); ++I) {
    std::optional<Profile> P;
    std::string Error;
    double LoadSeconds = 0;
    size_t Resident = 0;
    if (Window) {
      P = Window->take(I, Error, LoadSeconds, Resident);
    } else {
      // Decoding inline, the interner is fused into the decode (it is
      // not thread-safe, so only this path can).
      auto LoadStart = Clock::now();
      P = readProfileFile(Files[I], &Error, &Interner);
      LoadSeconds = secondsSince(LoadStart);
      Resident = P ? 1 : 0;
    }
    Result.LoadSeconds += LoadSeconds;
    // Sample the high-water mark while this shard still counts as
    // resident: decoded-but-unfolded shards plus the merge stack.
    Result.PeakResidentProfiles =
        std::max(Result.PeakResidentProfiles, Resident + Tree.size());
    if (P && Injector.shouldFail(support::FaultSite::MergeShardAlloc)) {
      P.reset();
      Error = "injected allocation failure buffering shard";
    }
    if (!P) {
      if (Opts.Strict) {
        // All-or-nothing: report only the aborting shard and expose no
        // partial merge.
        Result.StrictFailure = true;
        Result.Skipped = {{Files[I], Error}};
        Result.Loaded.clear();
        return Result;
      }
      Result.Skipped.push_back({Files[I], Error});
      continue;
    }
    auto ReduceStart = Clock::now();
    if (Window)
      P->internObjectKeys(Interner);
    Tree.push(std::move(*P));
    Result.ReduceSeconds += secondsSince(ReduceStart);
    Result.Loaded.push_back(Files[I]);
  }
  Result.Merged = Tree.take();
  return Result;
}
