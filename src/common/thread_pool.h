// Fixed-size thread pool used by the cluster executor (src/engine/cluster.h).
//
// The pool runs closures on `num_threads` host threads. Seabed's cluster
// model maps many *logical* workers onto however many host threads the
// machine actually has; the pool is deliberately simple (no work stealing, no
// futures) because the cluster layer does its own per-worker accounting.
#ifndef SEABED_SRC_COMMON_THREAD_POOL_H_
#define SEABED_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace seabed {

class ThreadPool {
 public:
  // Spawns `num_threads` worker threads (at least one).
  explicit ThreadPool(size_t num_threads);

  // Drains outstanding work, then joins all threads.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `task` for asynchronous execution.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task, from any caller, has finished.
  void Wait();

  // Runs `fn(i)` for every i in [0, n), in parallel, and waits for those n
  // calls only: concurrent callers sharing the pool do not wait for each
  // other's work. `fn` must be safe to invoke concurrently.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace seabed

#endif  // SEABED_SRC_COMMON_THREAD_POOL_H_
