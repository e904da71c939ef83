//===- support/ThreadPool.cpp ---------------------------------*- C++ -*-===//

#include "support/ThreadPool.h"

#include "support/ParseNumber.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

using namespace structslim;
using namespace structslim::support;

unsigned ThreadPool::defaultThreadCount() {
  const char *Env = std::getenv("STRUCTSLIM_THREADS");
  if (Env && *Env) {
    uint64_t Value = 0;
    if (parseUnsigned(Env, Value) && Value > 0)
      return static_cast<unsigned>(std::min<uint64_t>(Value, 256));
    // Several callers size from this per process; one warning is enough.
    static std::atomic<bool> Warned{false};
    if (!Warned.exchange(true))
      std::fprintf(stderr, "warning: ignoring STRUCTSLIM_THREADS = '%s'\n",
                   Env);
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
  Workers.reserve(Count);
  for (unsigned I = 0; I != Count; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    if (!Queue.empty()) {
      std::function<void()> Task = std::move(Queue.front());
      Queue.pop_front();
      Lock.unlock();
      Task();
      Lock.lock();
      continue;
    }
    // Shutdown waits for an empty queue: every submitted task runs.
    if (ShuttingDown)
      return;
    WorkAvailable.wait(Lock);
  }
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}
