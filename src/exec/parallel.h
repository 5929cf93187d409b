#ifndef BELLWETHER_EXEC_PARALLEL_H_
#define BELLWETHER_EXEC_PARALLEL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace bellwether::exec {

/// Ordered streaming reduce over a producer the pool cannot reorder: tasks
/// are submitted one at a time (typically from a storage scan), execute
/// concurrently, and their results are handed to `reduce` strictly in
/// submission order — the order a serial loop would produce them in. This
/// is what makes every thread count of a builder bit-identical: every
/// floating-point accumulator is still folded in the deterministic region
/// order, only the per-region computation runs on workers.
///
/// With a null pool (serial mode) Submit runs the task inline and reduces
/// immediately, so task lambdas may capture scan-local state by reference;
/// in parallel mode (`parallel()` true) the task outlives the Submit call
/// and must own copies of everything it touches. `max_outstanding` bounds
/// the completed-but-unreduced window, which bounds both memory and how far
/// the scan can run ahead of the merge.
///
/// A reduce error aborts the stream: Submit/Finish return it, and remaining
/// results are discarded (their tasks still run to completion in the pool).
template <typename R>
class MergeInSubmissionOrder {
 public:
  /// `reduce(index, result)` is invoked in submission order (index counts
  /// from 0). `pool` may be null for serial inline execution.
  MergeInSubmissionOrder(ThreadPool* pool, size_t max_outstanding,
                         const char* label,
                         std::function<Status(size_t, R)> reduce)
      : pool_(pool),
        max_outstanding_(max_outstanding < 1 ? 1 : max_outstanding),
        reduce_(std::move(reduce)),
        span_(label, "exec") {}

  ~MergeInSubmissionOrder() { span_.End(); }
  MergeInSubmissionOrder(const MergeInSubmissionOrder&) = delete;
  MergeInSubmissionOrder& operator=(const MergeInSubmissionOrder&) = delete;

  /// True when tasks run on pool workers (so they must own their inputs).
  bool parallel() const { return pool_ != nullptr; }

  /// Schedules one task. In serial mode the task runs inline and its result
  /// is reduced before Submit returns. In parallel mode the call first
  /// reduces the oldest completed results until fewer than max_outstanding
  /// tasks are pending, then enqueues.
  Status Submit(std::function<R()> task) {
    if (pool_ == nullptr) {
      return reduce_(next_reduce_index_++, task());
    }
    while (pending_.size() >= max_outstanding_) {
      BW_RETURN_IF_ERROR(ReduceFront());
    }
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::move(task));
    pending_.push_back(packaged->get_future());
    pool_->Submit([packaged] { (*packaged)(); });
    return Status::OK();
  }

  /// Reduces everything still pending, in order. Must be called before the
  /// results are consumed; further Submits are allowed afterwards (the
  /// stream simply continues).
  Status Finish() {
    while (!pending_.empty()) {
      BW_RETURN_IF_ERROR(ReduceFront());
    }
    return Status::OK();
  }

 private:
  Status ReduceFront() {
    R result = pending_.front().get();
    pending_.pop_front();
    return reduce_(next_reduce_index_++, std::move(result));
  }

  ThreadPool* pool_;
  const size_t max_outstanding_;
  std::function<Status(size_t, R)> reduce_;
  std::deque<std::future<R>> pending_;
  size_t next_reduce_index_ = 0;
  obs::TraceSpan span_;
};

/// Per-task buffers for a MergeInSubmissionOrder stream, reused instead of
/// reallocated: Acquire() before Submit and Release() from the reduce, both
/// on the submitting thread, so no locking is needed. A serial stream reuses
/// one buffer for every task; a parallel one holds at most
/// max_outstanding + 1. Buffers live as long as the FreeList, so it must
/// outlive the pool whose tasks write into them.
template <typename T>
class FreeList {
 public:
  T* Acquire() {
    if (idle_.empty()) {
      owned_.push_back(std::make_unique<T>());
      return owned_.back().get();
    }
    T* buffer = idle_.back();
    idle_.pop_back();
    return buffer;
  }
  void Release(T* buffer) { idle_.push_back(buffer); }

 private:
  std::vector<std::unique_ptr<T>> owned_;
  std::vector<T*> idle_;
};

}  // namespace bellwether::exec

#endif  // BELLWETHER_EXEC_PARALLEL_H_
