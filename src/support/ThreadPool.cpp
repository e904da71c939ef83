//===- support/ThreadPool.cpp ---------------------------------*- C++ -*-===//

#include "support/ThreadPool.h"

#include <atomic>
#include <cstdlib>
#include <string>

using namespace structslim;
using namespace structslim::support;

struct ThreadPool::Worker {
  std::thread Thread;
  std::deque<std::function<void()>> Deque;
};

unsigned ThreadPool::defaultThreadCount() {
  if (const char *Env = std::getenv("STRUCTSLIM_THREADS")) {
    char *End = nullptr;
    long Value = std::strtol(Env, &End, 10);
    if (End != Env && Value > 0)
      return static_cast<unsigned>(Value > 256 ? 256 : Value);
  }
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw == 0 ? 1 : Hw;
}

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool(defaultThreadCount());
  return Pool;
}

ThreadPool::ThreadPool(unsigned Count) {
  if (Count == 0)
    Count = defaultThreadCount();
  std::lock_guard<std::mutex> Lock(Mutex);
  for (unsigned I = 0; I != Count; ++I) {
    Workers.push_back(std::make_unique<Worker>());
    Workers[I]->Thread = std::thread([this, I] { workerLoop(I); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (auto &W : Workers)
    if (W->Thread.joinable())
      W->Thread.join();
}

unsigned ThreadPool::getWorkerCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return static_cast<unsigned>(Workers.size());
}

bool ThreadPool::trySteal(size_t Self, std::function<void()> &Out) {
  // Caller holds Mutex. Own back first, then other deques' fronts.
  Worker &Own = *Workers[Self];
  if (!Own.Deque.empty()) {
    Out = std::move(Own.Deque.back());
    Own.Deque.pop_back();
    return true;
  }
  for (size_t I = 0; I != Workers.size(); ++I) {
    Worker &Victim = *Workers[(Self + I + 1) % Workers.size()];
    if (!Victim.Deque.empty()) {
      Out = std::move(Victim.Deque.front());
      Victim.Deque.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::workerLoop(size_t Index) {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    std::function<void()> Task;
    if (trySteal(Index, Task)) {
      Lock.unlock();
      Task();
      Lock.lock();
      continue;
    }
    if (ShuttingDown)
      return;
    WorkAvailable.wait(Lock);
  }
}

void ThreadPool::run(const std::vector<std::function<void()>> &Tasks) {
  if (Tasks.empty())
    return;
  if (Tasks.size() == 1) {
    Tasks.front()();
    return;
  }

  struct Latch {
    std::mutex M;
    std::condition_variable Done;
    size_t Remaining;
  } L;
  L.Remaining = Tasks.size();

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &Task : Tasks) {
      Workers[NextDeque]->Deque.push_back([&L, &Task] {
        Task();
        std::lock_guard<std::mutex> Lock(L.M);
        if (--L.Remaining == 0)
          L.Done.notify_one();
      });
      NextDeque = (NextDeque + 1) % Workers.size();
    }
  }
  WorkAvailable.notify_all();

  std::unique_lock<std::mutex> Lock(L.M);
  L.Done.wait(Lock, [&L] { return L.Remaining == 0; });
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Workers[NextDeque]->Deque.push_back(std::move(Task));
    NextDeque = (NextDeque + 1) % Workers.size();
  }
  WorkAvailable.notify_all();
}

void ThreadPool::parallelFor(size_t Begin, size_t End,
                             const std::function<void(size_t)> &Body) {
  if (Begin >= End)
    return;
  size_t Total = End - Begin;
  if (Total == 1) {
    Body(Begin);
    return;
  }

  std::atomic<size_t> Next{Begin};
  auto Runner = [&Next, End, &Body] {
    for (size_t I = Next.fetch_add(1); I < End; I = Next.fetch_add(1))
      Body(I);
  };

  size_t Helpers = std::min<size_t>(getWorkerCount(), Total - 1);
  std::vector<std::function<void()>> Tasks(Helpers, Runner);

  struct Latch {
    std::mutex M;
    std::condition_variable Done;
    size_t Remaining;
  } L;
  L.Remaining = Helpers;

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &Task : Tasks) {
      Workers[NextDeque]->Deque.push_back([&L, &Task] {
        Task();
        std::lock_guard<std::mutex> Lock(L.M);
        if (--L.Remaining == 0)
          L.Done.notify_one();
      });
      NextDeque = (NextDeque + 1) % Workers.size();
    }
  }
  WorkAvailable.notify_all();

  // The calling thread participates instead of blocking.
  Runner();

  std::unique_lock<std::mutex> Lock(L.M);
  L.Done.wait(Lock, [&L] { return L.Remaining == 0; });
}
