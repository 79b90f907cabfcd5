// A fixed-size worker pool with a shared task counter, built for the
// pipeline's per-re-run scan fan-out (§5.1): `RunPeriod` issues many `RunAt`
// calls, and spawning/joining fresh std::threads per run dominates small
// scans. The pool spawns its workers once; each ParallelFor call hands out
// task indices [0, num_tasks) to the workers AND the calling thread, and
// returns when every index has been executed.
//
// Each batch lives in its own heap-allocated state block (shared_ptr-owned
// by the pool and every participating thread): index handout and completion
// are single atomic operations, so the per-task cost is two uncontended
// fetch_adds instead of the historical three mutex round-trips — the
// difference between the funnel scaling at 0.89x and scaling up on 8
// threads. A straggler worker that wakes after a batch finished only ever
// touches its own (still-alive) batch block.
//
// ParallelFor is synchronous and not reentrant: one batch runs at a time,
// and tasks must not call ParallelFor on the same pool.
//
// Exception contract: a task that throws does not abort the process, deadlock
// the batch, or poison the pool. The first exception of a batch is captured;
// the remaining task indices still run to completion (tasks are independent),
// and the captured exception is rethrown on the calling thread when
// ParallelFor joins. The pool is reusable afterwards.
#ifndef FBDETECT_SRC_COMMON_THREAD_POOL_H_
#define FBDETECT_SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fbdetect {

class ThreadPool {
 public:
  // Spawns `num_threads` workers. 0 is valid: ParallelFor then runs every
  // task on the calling thread (useful for single-threaded configurations).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Runs task(0) .. task(num_tasks - 1) across the pool workers and the
  // calling thread; returns once all have completed. Task indices are handed
  // out dynamically, so callers that need determinism must make each task's
  // RESULT depend only on its index (e.g. write into a per-index slot).
  // If any task throws, the batch still completes and the FIRST captured
  // exception is rethrown here.
  void ParallelFor(size_t num_tasks, const std::function<void(size_t)>& task);

 private:
  // Per-batch state. Heap-allocated and shared_ptr-held by every thread that
  // participates, so a worker waking late can safely discover the batch is
  // already drained without racing batch teardown or a successor batch.
  struct Batch {
    Batch(const std::function<void(size_t)>* task_fn, size_t count)
        : task(task_fn), num_tasks(count) {}

    const std::function<void(size_t)>* task;  // Outlives the batch (see join).
    const size_t num_tasks;
    std::atomic<size_t> next{0};       // Next task index to hand out.
    std::atomic<size_t> completed{0};  // Tasks finished.
    std::mutex exception_mutex;        // Guards `exception` (cold path).
    std::exception_ptr exception;      // First task exception of the batch.
  };

  void WorkerLoop();
  // Pulls and runs task indices of `batch` until none remain.
  void DrainBatch(Batch& batch);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // Signals workers: new batch or stop.
  std::condition_variable done_cv_;  // Signals ParallelFor: batch finished.
  std::shared_ptr<Batch> batch_;     // Null = no batch in flight.
  uint64_t batch_serial_ = 0;        // Bumped per batch so workers detect new work.
  bool stop_ = false;
};

// Convenience for the funnel's slot-indexed stages: runs fn(0) .. fn(n - 1)
// on `pool` plus the calling thread in statically strided lanes, or serially
// when `pool` is null/empty or the batch is too small to amortize a pool
// dispatch. `min_items_per_lane` is the granularity floor: the batch fans
// out over at most n / min_items_per_lane lanes, and falls back to the
// serial path when fewer than 2 lanes result. Cheap per-item stages (a SOM
// BMU search is ~1 microsecond) pass a floor of 8-16 so tiny survivor
// batches skip the wake/join cost entirely; expensive stages keep the
// default of 1.
//
// The lane -> index mapping is static (lane k runs indices k, k + lanes,
// ...), and fn must write results only into per-index slots, which makes the
// output byte-identical for any pool size and any granularity floor.
// Subject to ParallelFor's reentrancy rule: fn must not use the same pool.
inline void ParallelIndexFor(size_t n, ThreadPool* pool,
                             const std::function<void(size_t)>& fn,
                             size_t min_items_per_lane = 1) {
  size_t lanes = 0;
  if (pool != nullptr && pool->size() > 0 && n >= 2) {
    const size_t grain = min_items_per_lane == 0 ? 1 : min_items_per_lane;
    const size_t max_lanes = pool->size() + 1;
    lanes = n / grain;
    if (lanes > max_lanes) {
      lanes = max_lanes;
    }
  }
  if (lanes < 2) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  pool->ParallelFor(lanes, [&](size_t lane) {
    for (size_t i = lane; i < n; i += lanes) {
      fn(i);
    }
  });
}

}  // namespace fbdetect

#endif  // FBDETECT_SRC_COMMON_THREAD_POOL_H_
