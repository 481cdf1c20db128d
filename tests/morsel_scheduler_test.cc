// MorselScheduler unit and stress tests: work-stealing deques, TaskGroup
// spawn/wait, move-only task functions, worker identity, and a recursive
// fork-join stress that forces steals through deep spawn trees.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace mppdb {
namespace {

// A latch for fire-and-forget Submit tests (no TaskGroup involved).
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  int remaining;
  explicit Latch(int n) : remaining(n) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this]() { return remaining == 0; });
  }
};

TEST(MorselSchedulerTest, SubmitRunsAllTasks) {
  MorselScheduler scheduler(3);
  EXPECT_EQ(scheduler.num_workers(), 3);
  constexpr int kTasks = 100;
  std::atomic<int> ran{0};
  Latch latch(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    scheduler.Submit([&]() {
      ran.fetch_add(1, std::memory_order_relaxed);
      latch.CountDown();
    });
  }
  latch.Wait();
  EXPECT_EQ(ran.load(), kTasks);
}

// TaskFn is move-only: tasks may own move-only state (unique_ptr), which the
// old std::function-based pool could not hold without shared_ptr shims.
TEST(MorselSchedulerTest, TasksCarryMoveOnlyState) {
  MorselScheduler scheduler(2);
  auto payload = std::make_unique<int>(41);
  std::atomic<int> result{0};
  Latch latch(1);
  scheduler.Submit([payload = std::move(payload), &result, &latch]() mutable {
    result.store(*payload + 1);
    latch.CountDown();
  });
  latch.Wait();
  EXPECT_EQ(result.load(), 42);
}

TEST(MorselSchedulerTest, CurrentWorkerIdentity) {
  MorselScheduler scheduler(4);
  EXPECT_EQ(scheduler.CurrentWorker(), -1);  // external thread
  std::atomic<int> seen{-2};
  Latch latch(1);
  scheduler.Submit([&]() {
    seen.store(scheduler.CurrentWorker());
    latch.CountDown();
  });
  latch.Wait();
  EXPECT_GE(seen.load(), 0);
  EXPECT_LT(seen.load(), 4);
}

// TaskGroup from an external thread: Wait blocks until every spawned task
// completes, including tasks spawned while others already run.
TEST(MorselSchedulerTest, TaskGroupWaitsForAllSpawned) {
  MorselScheduler scheduler(4);
  std::atomic<int> ran{0};
  MorselScheduler::TaskGroup group(&scheduler);
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    group.Spawn([&]() { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), kTasks);
}

// The executor's actual shape: a scheduler task creates a TaskGroup, spawns
// morsels into its own deque, and helps drain them in Wait.
TEST(MorselSchedulerTest, GroupSpawnedFromWorkerTask) {
  MorselScheduler scheduler(2);
  std::atomic<int> ran{0};
  Latch latch(1);
  scheduler.Submit([&]() {
    MorselScheduler::TaskGroup group(&scheduler);
    for (int i = 0; i < 64; ++i) {
      group.Spawn([&]() { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    latch.CountDown();
  });
  latch.Wait();
  EXPECT_EQ(ran.load(), 64);
}

// Work actually spreads across workers: one task plants a burst of slow
// morsels in its own deque; peers must steal to finish them. Busy-time
// telemetry (BusyNanos) shows more than one worker participating. Thread
// scheduling is non-deterministic, so retry a few times before declaring
// failure.
TEST(MorselSchedulerTest, StealsSpreadWorkAcrossWorkers) {
  MorselScheduler scheduler(4);
  bool spread = false;
  for (int attempt = 0; attempt < 5 && !spread; ++attempt) {
    scheduler.ResetBusyTime();
    Latch latch(1);
    scheduler.Submit([&]() {
      MorselScheduler::TaskGroup group(&scheduler);
      for (int i = 0; i < 256; ++i) {
        group.Spawn([]() { std::this_thread::sleep_for(std::chrono::microseconds(200)); });
      }
      group.Wait();
      latch.CountDown();
    });
    latch.Wait();
    int busy_workers = 0;
    for (uint64_t ns : scheduler.BusyNanos()) {
      if (ns > 0) ++busy_workers;
    }
    spread = busy_workers >= 2;
  }
  EXPECT_TRUE(spread) << "no steal observed in 5 attempts";
}

TEST(MorselSchedulerTest, ResetBusyTimeZeroes) {
  MorselScheduler scheduler(2);
  Latch latch(1);
  scheduler.Submit([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    latch.CountDown();
  });
  latch.Wait();
  // The worker adds the task's time to busy_ns after the task body (and the
  // CountDown inside it) returns, so the latch doesn't order the accounting
  // with this thread: poll until the lone task's time lands. Once it has,
  // nothing races the reset below.
  auto total_busy = [&]() {
    uint64_t total = 0;
    for (uint64_t ns : scheduler.BusyNanos()) total += ns;
    return total;
  };
  while (total_busy() == 0) std::this_thread::yield();
  EXPECT_GT(total_busy(), 0u);
  scheduler.ResetBusyTime();
  EXPECT_EQ(total_busy(), 0u);
}

// Recursive fork-join: tasks split a range and spawn both halves back into
// the same group (morsels spawning morsels), leaves mark their elements.
// Exercises deque LIFO, steal-half replanting, and group completion under a
// deep dynamic task tree, across several worker counts and random seeds.
TEST(MorselSchedulerStressTest, RecursiveForkJoin) {
  std::mt19937 rng(20260809);
  for (int round = 0; round < 6; ++round) {
    const int workers = 1 + static_cast<int>(rng() % 4);
    const size_t n = 512 + rng() % 2048;
    MorselScheduler scheduler(workers);
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);

    struct Splitter {
      MorselScheduler::TaskGroup* group;
      std::vector<std::atomic<int>>* hits;
      void Run(size_t begin, size_t end) const {
        if (end - begin <= 16) {
          for (size_t i = begin; i < end; ++i) {
            (*hits)[i].fetch_add(1, std::memory_order_relaxed);
          }
          return;
        }
        const size_t mid = begin + (end - begin) / 2;
        Splitter self = *this;
        group->Spawn([self, mid, end]() { self.Run(mid, end); });
        Run(begin, mid);
      }
    };

    Latch latch(1);
    scheduler.Submit([&]() {
      MorselScheduler::TaskGroup group(&scheduler);
      Splitter splitter{&group, &hits};
      group.Spawn([&splitter, n]() { splitter.Run(0, n); });
      group.Wait();
      latch.CountDown();
    });
    latch.Wait();
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " element " << i;
    }
  }
}

// Many external threads hammering one scheduler with groups concurrently —
// the executor does exactly this when Database shares one pool across
// queries.
TEST(MorselSchedulerStressTest, ConcurrentGroupsFromManyThreads) {
  MorselScheduler scheduler(4);
  constexpr int kThreads = 6;
  constexpr int kTasksPerGroup = 100;
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int iter = 0; iter < 10; ++iter) {
        MorselScheduler::TaskGroup group(&scheduler);
        for (int i = 0; i < kTasksPerGroup; ++i) {
          group.Spawn([&]() { total.fetch_add(1, std::memory_order_relaxed); });
        }
        group.Wait();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(total.load(), kThreads * 10 * kTasksPerGroup);
}

}  // namespace
}  // namespace mppdb
