#include "exec/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/steal_deque.hpp"

namespace lmr::exec {
namespace {

TEST(ResolveThreads, ZeroMeansHardwareNeverLessThanOne) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(0), resolve_threads(0));  // stable
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(5), 5u);
}

TEST(StealDeque, OwnerIsLifoThievesAreFifo) {
  StealDeque<int> d;
  int items[4] = {0, 1, 2, 3};
  for (int& i : items) d.push(&i);
  EXPECT_EQ(d.pop(), &items[3]);    // owner takes the newest
  EXPECT_EQ(d.steal(), &items[0]);  // thief takes the oldest
  EXPECT_EQ(d.steal(), &items[1]);
  EXPECT_EQ(d.pop(), &items[2]);
  EXPECT_EQ(d.pop(), nullptr);
  EXPECT_EQ(d.steal(), nullptr);
  EXPECT_TRUE(d.empty());
}

TEST(StealDeque, GrowsPastInitialCapacity) {
  StealDeque<int> d(2);
  std::vector<int> items(1000);
  for (int& i : items) d.push(&i);
  for (std::size_t k = 0; k < items.size(); ++k) {
    EXPECT_EQ(d.pop(), &items[items.size() - 1 - k]);
  }
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(StealDeque, ConcurrentStealsLoseNothing) {
  // Owner pushes then pops half; four thieves hammer the top. Every item
  // must be taken exactly once across all takers.
  StealDeque<int> d(4);
  constexpr int kItems = 20000;
  std::vector<int> items(kItems);
  std::atomic<int> taken{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  for (int t = 0; t < 4; ++t) {
    thieves.emplace_back([&] {
      int got = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (d.steal() != nullptr) ++got;
      }
      while (d.steal() != nullptr) ++got;
      taken.fetch_add(got);
    });
  }
  int popped = 0;
  for (int i = 0; i < kItems; ++i) {
    d.push(&items[static_cast<std::size_t>(i)]);
    if (i % 2 == 1 && d.pop() != nullptr) ++popped;
  }
  while (d.pop() != nullptr) ++popped;
  done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();
  EXPECT_EQ(popped + taken.load(), kItems);
}

TEST(TaskPool, RunsEverySubmittedTask) {
  TaskPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  EXPECT_EQ(pool.parallelism(), 4u);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) {
    group.run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskPool, ZeroWorkerPoolRunsInlineOnWaiter) {
  TaskPool pool(0);
  EXPECT_EQ(pool.parallelism(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  TaskGroup group(pool);
  for (int i = 0; i < 5; ++i) {
    group.run([&ran_on] { ran_on.push_back(std::this_thread::get_id()); });
  }
  group.wait();
  ASSERT_EQ(ran_on.size(), 5u);
  for (const auto id : ran_on) EXPECT_EQ(id, caller);
}

TEST(TaskPool, SharedSingletonIsOneInstance) {
  TaskPool& a = TaskPool::shared();
  TaskPool& b = TaskPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.parallelism(), resolve_threads(0));
  EXPECT_FALSE(a.on_worker_thread());  // the test body is not a pool worker
}

TEST(TaskGroup, WaitRethrowsFirstExceptionAndStaysReusable) {
  TaskPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    group.run([&count, i] {
      count.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) throw std::runtime_error("member task failed");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(count.load(), 8);  // drain-then-rethrow: every task still ran

  // The group is reusable and the captured error does not leak into the
  // next batch.
  group.run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_NO_THROW(group.wait());
  EXPECT_EQ(count.load(), 9);
}

TEST(ParallelForDynamic, CoversEveryIndexExactlyOnce) {
  TaskPool pool(3);
  constexpr std::size_t kN = 2048;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for_dynamic(pool, kN, 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForDynamic, SerialWhenCapOrPoolIsOne) {
  TaskPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(16);
  parallel_for_dynamic(pool, ran_on.size(), 8,
                       [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto id : ran_on) EXPECT_EQ(id, caller);

  TaskPool wide(3);
  parallel_for_dynamic(wide, ran_on.size(), 1,
                       [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ParallelForDynamic, PropagatesExceptions) {
  TaskPool pool(3);
  EXPECT_THROW(parallel_for_dynamic(pool, 64, 4,
                                    [&](std::size_t i) {
                                      if (i == 37) throw std::invalid_argument("bad index");
                                    }),
               std::invalid_argument);
}

TEST(ParallelForDynamic, ExceptionReachesCallerOnlyAfterEveryClaimerFinished) {
  // The Router writes its rollback snapshot back as soon as its group
  // fan-out (with member fan-outs nested inside) throws, so no claimer may
  // still be running when the exception reaches the caller. Index 0 throws
  // at once on whichever claimer takes it (normally the caller, which
  // claims right after submitting the workers); 37 and 63 throw on other
  // claimers while their siblings are mid-call.
  TaskPool pool(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::atomic<int> running{0};
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    const auto member = [&](std::size_t i) {
      ++started;
      ++running;
      const bool fail = i == 0 || i == 37 || i == 63;
      if (!fail) std::this_thread::sleep_for(std::chrono::microseconds(200));
      --running;
      ++finished;
      if (fail) throw std::runtime_error("member failed");
    };
    EXPECT_THROW(parallel_for_dynamic(pool, 100, 4, member), std::runtime_error);
    EXPECT_EQ(running.load(), 0) << "trial " << trial;
    EXPECT_EQ(finished.load(), started.load()) << "trial " << trial;
  }
}

TEST(ParallelForDynamic, NestedSubmissionDoesNotDeadlock) {
  // The Suite-runs-Router shape: outer tasks fan out again on the same
  // pool and wait. With blocking waiters this deadlocks as soon as the
  // outer width reaches the worker count; helping waiters must finish it.
  TaskPool pool(2);  // deliberately narrower than the outer width
  constexpr std::size_t kOuter = 8, kInner = 16;
  std::atomic<int> total{0};
  parallel_for_dynamic(pool, kOuter, kOuter, [&](std::size_t) {
    parallel_for_dynamic(pool, kInner, 4, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), static_cast<int>(kOuter * kInner));
}

TEST(TaskPool, PersistsAcrossRepeatedFanOuts) {
  // Reuse contract: many fan-outs on one pool never run on more distinct
  // threads than workers + caller — i.e. no per-call thread spawning.
  TaskPool pool(2);
  std::mutex mu;
  std::set<std::thread::id> seen;
  for (int call = 0; call < 200; ++call) {
    parallel_for_dynamic(pool, 8, 3, [&](std::size_t) {
      const std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    });
  }
  EXPECT_LE(seen.size(), pool.worker_count() + 1);
}

}  // namespace
}  // namespace lmr::exec
