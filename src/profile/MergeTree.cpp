//===- profile/MergeTree.cpp ----------------------------------*- C++ -*-===//

#include "profile/MergeTree.h"

#include "profile/ProfileIO.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

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
// EpochAccumulator
//===----------------------------------------------------------------------===//

void EpochAccumulator::pushLeaf(Profile P) {
  Stack.push_back({std::move(P), 1});
  while (Stack.size() >= 2 &&
         Stack[Stack.size() - 2].Weight == Stack.back().Weight) {
    Entry Top = std::move(Stack.back());
    Stack.pop_back();
    Stack.back().P.merge(Top.P, Scratch);
    Stack.back().Weight *= 2;
  }
  ++Shards;
}

Profile EpochAccumulator::compact() const {
  if (Stack.empty())
    return Profile();
  // Right-fold deep copies from the top of the stack — the same order
  // finish()/take() use, which matches the odd-tail promotion rule of
  // the canonical tree.
  std::vector<Profile> Copies;
  Copies.reserve(Stack.size());
  for (const Entry &E : Stack)
    Copies.push_back(E.P);
  MergeScratch LocalScratch;
  while (Copies.size() > 1) {
    Profile Top = std::move(Copies.back());
    Copies.pop_back();
    Copies.back().merge(Top, LocalScratch);
  }
  return std::move(Copies.front());
}

Profile EpochAccumulator::take() {
  if (Stack.empty())
    return Profile();
  while (Stack.size() > 1) {
    Entry Top = std::move(Stack.back());
    Stack.pop_back();
    Stack.back().P.merge(Top.P, Scratch);
  }
  Profile Out = std::move(Stack.back().P);
  Stack.clear();
  Shards = 0;
  return Out;
}

/// The serial loader: decode and fold one shard at a time. Used for
/// jobs <= 1 and whenever fault injection is armed (the injector's
/// hit-order contract — hit N is file N — requires deterministic
/// decode order). Identical output to the parallel path by
/// construction: both feed the same accumulator in file order. The
/// serial path also fuses key interning into the decode itself (the
/// interner is not thread-safe, so only this path can).
MergeLoadResult EpochAccumulator::addSerial(
    const std::vector<std::string> &Files) {
  MergeLoadResult Result;
  support::FaultInjector &Injector = support::FaultInjector::instance();
  std::vector<Entry> Snapshot;
  size_t ShardsSnapshot = Shards;
  if (Opts.Strict)
    Snapshot = Stack; // Deep copy: strict failure must restore it.

  for (const std::string &Path : Files) {
    auto LoadStart = Clock::now();
    std::string Error;
    std::optional<Profile> P = readProfileFile(Path, &Error, &Interner);
    Result.LoadSeconds += secondsSince(LoadStart);
    if (P && Injector.shouldFail(support::FaultSite::MergeShardAlloc)) {
      P.reset();
      Error = "injected allocation failure buffering shard";
    }
    if (!P) {
      Result.Skipped.push_back({Path, Error});
      if (Opts.Strict) {
        // All-or-nothing: report only the aborting shard and expose no
        // partial merge state — neither in the result nor in the
        // accumulator (ids interned from earlier shards of this call
        // stay in the interner, which is harmless: ids only append).
        Result.StrictFailure = true;
        Result.Skipped = {{Path, Error}};
        Result.Loaded.clear();
        Result.Merged = Profile();
        Stack = std::move(Snapshot);
        Shards = ShardsSnapshot;
        return Result;
      }
      continue;
    }
    auto ReduceStart = Clock::now();
    if (Result.PeakResidentProfiles < Stack.size() + 1)
      Result.PeakResidentProfiles = Stack.size() + 1;
    pushLeaf(std::move(*P));
    Result.ReduceSeconds += secondsSince(ReduceStart);
    Result.Loaded.push_back(Path);
  }
  if (PeakResident < Result.PeakResidentProfiles)
    PeakResident = Result.PeakResidentProfiles;
  return Result;
}

/// The streaming parallel loader: a bounded window of decode tasks
/// runs ahead on the pool while the coordinator consumes strictly in
/// file order, so the accumulator sees the same sequence as the serial
/// path and at most O(jobs) decoded shards are resident at once.
MergeLoadResult EpochAccumulator::addStreaming(
    const std::vector<std::string> &Files, unsigned Jobs) {
  MergeLoadResult Result;
  support::FaultInjector &Injector = support::FaultInjector::instance();
  support::ThreadPool &Pool = support::ThreadPool::global();

  struct Slot {
    std::optional<Profile> P;
    std::string Error;
    double Seconds = 0;
    bool Done = false;
  };
  std::vector<Slot> Slots(Files.size());
  std::mutex Mutex;
  std::condition_variable SlotDone;
  size_t Issued = 0;
  size_t Completed = 0;       ///< Tasks finished (guarded by Mutex).
  size_t ResidentDecoded = 0; ///< Done slots still holding a profile.

  auto IssueOne = [&]() {
    size_t I = Issued++;
    Pool.submit([&, I] {
      auto Start = Clock::now();
      std::string Error;
      std::optional<Profile> P = readProfileFile(Files[I], &Error);
      double Seconds = secondsSince(Start);
      // Notify under the lock: the coordinator destroys SlotDone as
      // soon as it sees Completed == Issued, so an unlocked notify
      // could land on a dead condvar.
      std::lock_guard<std::mutex> Lock(Mutex);
      Slots[I].P = std::move(P);
      Slots[I].Error = std::move(Error);
      Slots[I].Seconds = Seconds;
      Slots[I].Done = true;
      ++Completed;
      if (Slots[I].P)
        ++ResidentDecoded;
      SlotDone.notify_all();
    });
  };

  // Decode window: enough look-ahead to keep every worker busy while
  // the coordinator folds, but bounded so memory stays O(jobs).
  size_t Window = std::min<size_t>(Files.size(), 2 * (size_t)Jobs);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    while (Issued < Window)
      IssueOne();
  }

  // Tasks reference this frame's state; every exit path must first
  // drain what was issued.
  auto Drain = [&]() {
    std::unique_lock<std::mutex> Lock(Mutex);
    SlotDone.wait(Lock, [&] { return Completed == Issued; });
  };

  std::vector<Entry> Snapshot;
  size_t ShardsSnapshot = Shards;
  if (Opts.Strict)
    Snapshot = Stack; // Deep copy: strict failure must restore it.

  for (size_t I = 0; I != Files.size(); ++I) {
    std::optional<Profile> P;
    std::string Error;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      SlotDone.wait(Lock, [&] { return Slots[I].Done; });
      P = std::move(Slots[I].P);
      Error = std::move(Slots[I].Error);
      Result.LoadSeconds += Slots[I].Seconds;
      // Sample the high-water mark while this shard still counts as
      // resident: decoded-but-unmerged slots plus the merge stack.
      size_t Resident = ResidentDecoded + Stack.size();
      if (Result.PeakResidentProfiles < Resident)
        Result.PeakResidentProfiles = Resident;
      if (P)
        --ResidentDecoded;
    }
    if (P && Injector.shouldFail(support::FaultSite::MergeShardAlloc)) {
      P.reset();
      Error = "injected allocation failure buffering shard";
    }
    if (!P) {
      Result.Skipped.push_back({Files[I], Error});
      if (Opts.Strict) {
        Result.StrictFailure = true;
        Result.Skipped = {{Files[I], Error}};
        Result.Loaded.clear();
        Result.Merged = Profile();
        Drain();
        Stack = std::move(Snapshot);
        Shards = ShardsSnapshot;
        return Result;
      }
      // Keep the pipeline full past a skipped shard.
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Issued < Files.size())
        IssueOne();
      continue;
    }
    auto ReduceStart = Clock::now();
    // Decode ran concurrently, so keys intern at fold time (the
    // interner is single-threaded by contract).
    P->internObjectKeys(Interner);
    pushLeaf(std::move(*P));
    Result.ReduceSeconds += secondsSince(ReduceStart);
    Result.Loaded.push_back(Files[I]);
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Issued < Files.size())
      IssueOne();
  }
  Drain();
  if (PeakResident < Result.PeakResidentProfiles)
    PeakResident = Result.PeakResidentProfiles;
  return Result;
}

MergeLoadResult
EpochAccumulator::addShards(const std::vector<std::string> &Files) {
  unsigned Jobs = Opts.WorkerThreads ? Opts.WorkerThreads
                                     : support::ThreadPool::defaultThreadCount();
  // Armed fault injection pins decode order (hit N must be file N);
  // one worker or one file gains nothing from the task machinery.
  if (Jobs <= 1 || Files.size() <= 1 ||
      support::FaultInjector::instance().anyArmed())
    return addSerial(Files);
  return addStreaming(Files, Jobs);
}

MergeLoadResult
structslim::profile::loadAndMergeProfiles(const std::vector<std::string> &Files,
                                          const MergeOptions &Opts) {
  EpochAccumulator Acc(Opts);
  MergeLoadResult Result = Acc.addShards(Files);
  if (!Result.StrictFailure)
    Result.Merged = Acc.take();
  return Result;
}
