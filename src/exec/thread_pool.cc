#include "exec/thread_pool.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace bellwether::exec {

namespace {

// Registry handles resolved once and cached (registry pointers are stable).
struct ExecMetrics {
  obs::Counter* tasks_submitted;
  obs::Gauge* queue_depth;
  obs::Gauge* busy_seconds;
};

const ExecMetrics& Metrics() {
  static const ExecMetrics m{
      obs::DefaultMetrics().GetCounter(obs::kMExecTasksSubmitted),
      obs::DefaultMetrics().GetGauge(obs::kMExecQueueDepth),
      obs::DefaultMetrics().GetGauge(obs::kMExecWorkerBusySeconds)};
  return m;
}

}  // namespace

int32_t ResolveNumThreads(int32_t requested) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int32_t>(hw);
  }
  return std::max<int32_t>(requested, 1);
}

ThreadPool::ThreadPool(int32_t num_threads) {
  const int32_t n = std::max<int32_t>(num_threads, 1);
  workers_.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      // Label the worker for trace output and register it with the
      // sampling profiler for the pool's lifetime; unregistration flushes
      // any buffered samples so they survive the worker thread.
      obs::SetCurrentThreadName("exec-worker-" + std::to_string(i));
      obs::Profiler::RegisterCurrentThread();
      WorkerLoop();
      obs::Profiler::UnregisterCurrentThread();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    Metrics().tasks_submitted->Increment();
    Metrics().queue_depth->SetMax(static_cast<double>(queue_.size()));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: destruction must not drop
      // submitted work (consumers may hold futures on it).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    Stopwatch busy;
    task();
    Metrics().busy_seconds->Add(busy.ElapsedSeconds());
  }
}

}  // namespace bellwether::exec
