// Tests of the parallel execution layer (src/exec/): thread-pool basics and
// draining, the ordered streaming reduce (MergeInSubmissionOrder), its error
// propagation, and the exec metrics. The stress cases double as the TSAN
// targets of the tsan preset.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace bellwether::exec {
namespace {

TEST(ResolveNumThreadsTest, Mapping) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(4), 4);
  EXPECT_EQ(ResolveNumThreads(-3), 1);
  const int32_t hw = ResolveNumThreads(0);
  EXPECT_GE(hw, 1);
  EXPECT_EQ(static_cast<uint32_t>(hw),
            std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int64_t> sum{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    for (int i = 1; i <= 100; ++i) {
      pool.Submit([&sum, i] { sum.fetch_add(i); });
    }
  }  // the destructor drains the queue
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int64_t> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
    // Destruction must run everything still queued.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, SubmitFromMultipleThreadsStress) {
  // TSAN target: several producers hammering one pool.
  std::atomic<int64_t> sum{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> producers;
    for (int t = 0; t < 3; ++t) {
      producers.emplace_back([&pool, &sum] {
        for (int i = 0; i < 500; ++i) {
          pool.Submit([&sum] { sum.fetch_add(1); });
        }
      });
    }
    for (auto& p : producers) p.join();
  }  // the destructor drains the queue
  EXPECT_EQ(sum.load(), 1500);
}

TEST(MergeInSubmissionOrderTest, SerialRunsInlineAndInOrder) {
  std::vector<size_t> reduced;
  MergeInSubmissionOrder<size_t> reducer(
      nullptr, 8, "test.serial", [&](size_t index, size_t value) -> Status {
        EXPECT_EQ(index, value);
        reduced.push_back(value);
        return Status::OK();
      });
  EXPECT_FALSE(reducer.parallel());
  for (size_t i = 0; i < 10; ++i) {
    // Inline execution: the result is reduced before Submit returns, so the
    // task may capture loop-local state by reference.
    ASSERT_TRUE(reducer.Submit([&i] { return i; }).ok());
    EXPECT_EQ(reduced.size(), i + 1);
  }
  ASSERT_TRUE(reducer.Finish().ok());
  EXPECT_EQ(reduced.size(), 10u);
}

TEST(MergeInSubmissionOrderTest, ParallelReducesInSubmissionOrder) {
  ThreadPool pool(4);
  std::vector<size_t> reduced;
  MergeInSubmissionOrder<size_t> reducer(
      &pool, 8, "test.ordered", [&](size_t index, size_t value) -> Status {
        EXPECT_EQ(index, value);
        EXPECT_EQ(reduced.size(), index);
        reduced.push_back(value);
        return Status::OK();
      });
  EXPECT_TRUE(reducer.parallel());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(reducer.Submit([i] {
                        // Earlier tasks sleep longer, so completion order is
                        // roughly the reverse of submission order.
                        std::this_thread::sleep_for(
                            std::chrono::microseconds((100 - i) * 5));
                        return i;
                      })
                    .ok());
  }
  ASSERT_TRUE(reducer.Finish().ok());
  ASSERT_EQ(reduced.size(), 100u);
  for (size_t i = 0; i < reduced.size(); ++i) EXPECT_EQ(reduced[i], i);
}

TEST(MergeInSubmissionOrderTest, BoundedOutstandingWindow) {
  ThreadPool pool(2);
  std::atomic<int64_t> completed{0};
  size_t reduced = 0;
  MergeInSubmissionOrder<int> reducer(
      &pool, 4, "test.window", [&](size_t, int) -> Status {
        ++reduced;
        return Status::OK();
      });
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(reducer.Submit([&completed] {
                        completed.fetch_add(1);
                        return 0;
                      })
                    .ok());
    // At most max_outstanding results may be pending un-reduced.
    EXPECT_LE(static_cast<size_t>(i) + 1 - reduced, 4u);
  }
  ASSERT_TRUE(reducer.Finish().ok());
  EXPECT_EQ(reduced, 32u);
  EXPECT_EQ(completed.load(), 32);
}

TEST(MergeInSubmissionOrderTest, ReduceErrorAbortsStream) {
  ThreadPool pool(2);
  size_t reduced = 0;
  MergeInSubmissionOrder<size_t> reducer(
      &pool, 1, "test.error", [&](size_t index, size_t) -> Status {
        ++reduced;
        if (index == 2) return Status::Internal("stop here");
        return Status::OK();
      });
  Status st;
  size_t submitted = 0;
  for (size_t i = 0; i < 10 && st.ok(); ++i) {
    st = reducer.Submit([i] { return i; });
    ++submitted;
  }
  if (st.ok()) st = reducer.Finish();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(reduced, 3u);  // indices 0, 1, 2
  EXPECT_LT(submitted, 10u);
}

TEST(ExecMetricsTest, TasksSubmittedCounterAdvances) {
  obs::Counter* submitted =
      obs::DefaultMetrics().GetCounter(obs::kMExecTasksSubmitted);
  const int64_t before = submitted->Value();
  {
    ThreadPool pool(2);
    for (int i = 0; i < 17; ++i) {
      pool.Submit([] {});
    }
  }  // the destructor drains the queue
  EXPECT_EQ(submitted->Value() - before, 17);
  // Busy-seconds accumulates (weakly: tasks are near-instant, so just check
  // the gauge exists and is non-negative).
  EXPECT_GE(obs::DefaultMetrics()
                .GetGauge(obs::kMExecWorkerBusySeconds)
                ->Value(),
            0.0);
}

}  // namespace
}  // namespace bellwether::exec
