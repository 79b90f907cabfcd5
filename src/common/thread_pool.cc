#include "src/common/thread_pool.h"

#include <utility>

namespace fbdetect {

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::DrainBatch(Batch& batch) {
  while (true) {
    // Uncontended atomic claim; indices past num_tasks mean the batch is
    // drained (the counter overshoots by at most one per participant).
    const size_t index = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.num_tasks) {
      return;
    }
    try {
      (*batch.task)(index);
    } catch (...) {
      // Keep the first exception; later ones of the same batch are dropped.
      // The index still counts as completed so the join never deadlocks.
      std::unique_lock<std::mutex> lock(batch.exception_mutex);
      if (batch.exception == nullptr) {
        batch.exception = std::current_exception();
      }
    }
    if (batch.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.num_tasks) {
      // Notify under the pool mutex so the wakeup cannot slip between the
      // caller's predicate check and its wait.
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_serial = 0;
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this, seen_serial]() {
        return stop_ || (batch_ != nullptr && batch_serial_ != seen_serial);
      });
      if (stop_) {
        return;
      }
      batch = batch_;
      seen_serial = batch_serial_;
    }
    // The shared_ptr keeps the batch block alive even if this worker wakes
    // so late that ParallelFor already joined and published a newer batch;
    // the stale batch's counter is exhausted, so DrainBatch returns without
    // running anything.
    DrainBatch(*batch);
  }
}

void ThreadPool::ParallelFor(size_t num_tasks, const std::function<void(size_t)>& task) {
  if (num_tasks == 0) {
    return;
  }
  if (workers_.empty() || num_tasks == 1) {
    // Same exception contract as the threaded path: the first throw is
    // captured, every other index still runs, and the exception surfaces at
    // the end of the batch.
    std::exception_ptr exception;
    for (size_t i = 0; i < num_tasks; ++i) {
      try {
        task(i);
      } catch (...) {
        if (exception == nullptr) {
          exception = std::current_exception();
        }
      }
    }
    if (exception != nullptr) {
      std::rethrow_exception(exception);
    }
    return;
  }
  std::shared_ptr<Batch> batch = std::make_shared<Batch>(&task, num_tasks);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    batch_ = batch;
    ++batch_serial_;
  }
  work_cv_.notify_all();
  // The caller participates, so a batch always makes progress even while the
  // workers are still waking up.
  DrainBatch(*batch);
  std::exception_ptr exception;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&batch]() {
      return batch->completed.load(std::memory_order_acquire) == batch->num_tasks;
    });
    // `task` (a caller reference) may dangle after this function returns, so
    // the batch must be unpublished before then; stragglers that still hold
    // the shared_ptr see an exhausted counter and never touch `task`.
    batch_ = nullptr;
  }
  {
    std::unique_lock<std::mutex> lock(batch->exception_mutex);
    exception = std::exchange(batch->exception, nullptr);
  }
  if (exception != nullptr) {
    std::rethrow_exception(exception);
  }
}

}  // namespace fbdetect
