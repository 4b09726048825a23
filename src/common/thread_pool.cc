#include "src/common/thread_pool.h"

#include <atomic>

#include "src/common/check.h"

namespace seabed {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  SEABED_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mu_);
    SEABED_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (n == 1 || threads_.size() == 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  // Per-call completion count: the caller waits for its own n indices only,
  // never for other callers' tasks sharing the pool. A task that starts after
  // every index was claimed touches nothing but `call` and returns.
  struct Call {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable all_done;
    size_t done = 0;
  };
  auto call = std::make_shared<Call>();
  const size_t spawn = std::min(n, threads_.size());
  for (size_t t = 0; t < spawn; ++t) {
    Submit([call, n, &fn] {
      size_t ran = 0;
      for (size_t i = call->next.fetch_add(1); i < n; i = call->next.fetch_add(1)) {
        fn(i);
        ++ran;
      }
      if (ran > 0) {
        std::unique_lock<std::mutex> lock(call->mu);
        call->done += ran;
        if (call->done == n) {
          call->all_done.notify_all();
        }
      }
    });
  }
  std::unique_lock<std::mutex> lock(call->mu);
  call->all_done.wait(lock, [&] { return call->done == n; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutting down and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

}  // namespace seabed
