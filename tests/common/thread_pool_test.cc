#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <numeric>
#include <vector>

namespace seabed {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZero) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForSingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> hits(10, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

// ParallelFor waits for its own indices only. Caller A's task holds one of
// the two threads until released; caller B's ParallelFor must still return,
// run entirely on the other thread. The timed wait only bounds a failure —
// a pool-wide wait would block B until A's task is released.
TEST(ThreadPoolTest, ParallelForDoesNotWaitForOtherCallersTasks) {
  ThreadPool pool(2);
  std::latch a_started(1);
  std::latch a_release(1);
  pool.Submit([&] {
    a_started.count_down();
    a_release.wait();
  });
  a_started.wait();

  std::vector<std::atomic<int>> hits(16);
  std::future<void> b = std::async(std::launch::async, [&] {
    pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  });
  const bool b_returned_first = b.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  a_release.count_down();
  b.wait();
  pool.Wait();
  EXPECT_TRUE(b_returned_first) << "ParallelFor waited for another caller's blocked task";
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, NestedSubmissionFromTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    counter.fetch_add(1);
    pool.Submit([&] { counter.fetch_add(1); });
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

}  // namespace
}  // namespace seabed
