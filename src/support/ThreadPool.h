//===- support/ThreadPool.h - FIFO task pool -------------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker pool behind the streaming shard loader (MergeTree): the
/// loader submits one decode task per shard and consumes the results in
/// file order, so the pool runs tasks from one FIFO queue — the oldest
/// shard is always decoded first. Determinism never depends on the
/// schedule.
///
/// The default worker count comes from the STRUCTSLIM_THREADS
/// environment variable when it holds a whole positive decimal number
/// (clamped to [1, 256]), otherwise from
/// std::thread::hardware_concurrency().
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_THREADPOOL_H
#define STRUCTSLIM_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace structslim {
namespace support {

class ThreadPool {
public:
  /// Creates a pool with \p Workers OS threads; 0 means
  /// defaultThreadCount().
  explicit ThreadPool(unsigned Workers = 0);
  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues one task and returns immediately. The caller owns
  /// completion tracking (the streaming merge loader counts its slots).
  void submit(std::function<void()> Task);

  /// Process-wide shared pool, lazily created at defaultThreadCount().
  static ThreadPool &global();

  /// STRUCTSLIM_THREADS when it is a whole positive number (clamped to
  /// [1, 256]), otherwise hardware_concurrency(), never 0. A malformed
  /// value counts as unset and prints one warning on stderr.
  static unsigned defaultThreadCount();

private:
  void workerLoop();

  std::mutex Mutex; ///< Guards Queue and ShuttingDown.
  std::condition_variable WorkAvailable;
  std::deque<std::function<void()>> Queue;
  bool ShuttingDown = false;
  std::vector<std::thread> Workers; ///< Last: the threads use the above.
};

} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_THREADPOOL_H
