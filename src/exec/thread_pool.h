#ifndef BELLWETHER_EXEC_THREAD_POOL_H_
#define BELLWETHER_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bellwether::exec {

/// Parallel-execution knob threaded through the search, tree, and cube
/// options. The default is strictly serial: no pool is created, and each
/// builder's one code path runs its per-region tasks inline on the scan
/// thread. Any other value runs those tasks on a worker pool, under the
/// determinism contract of docs/PERFORMANCE.md: for every thread count the
/// results (models, errors, picked regions, logical scan-count telemetry)
/// are bit-identical to the serial build.
struct BellwetherExecOptions {
  /// 1 = serial (default), 0 = std::thread::hardware_concurrency(),
  /// N > 1 = exactly N workers. Negative values behave like 1.
  int32_t num_threads = 1;
};

/// Resolves a BellwetherExecOptions::num_threads request to a concrete
/// worker count: 0 maps to hardware_concurrency (at least 1), anything
/// below 1 maps to 1.
int32_t ResolveNumThreads(int32_t requested);

/// Fixed-size worker pool with a FIFO task queue. Construction spawns the
/// workers; destruction drains the queue (remaining tasks run, nothing is
/// silently dropped) and joins them. Submission is thread-safe, though the
/// bellwether builders only ever submit from their scan thread.
///
/// The pool mirrors its activity into the process MetricsRegistry
/// (bellwether_exec_tasks_submitted_total, bellwether_exec_queue_depth,
/// bellwether_exec_worker_busy_seconds_total — see docs/OBSERVABILITY.md).
class ThreadPool {
 public:
  /// `num_threads` must be >= 1 (callers resolve via ResolveNumThreads).
  explicit ThreadPool(int32_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int32_t num_threads() const {
    return static_cast<int32_t>(workers_.size());
  }

  /// Enqueues a task. Tasks start in FIFO order; completion order is
  /// whatever the hardware makes of it, which is why result consumers go
  /// through MergeInSubmissionOrder (see parallel.h).
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace bellwether::exec

#endif  // BELLWETHER_EXEC_THREAD_POOL_H_
