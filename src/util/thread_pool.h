// Fixed-size worker pool with a task queue, used by the sweep and fleet
// fan-out (sim/fan_out.h).
//
// Design constraints, in order:
//   1. Determinism lives above the pool. The pool promises nothing about
//      execution order; callers that need ordered results index into a
//      pre-sized output array and reduce on their own thread.
//   2. Exceptions must never vanish. `submit()` returns a future that
//      rethrows; `parallel_for_each()` rethrows the failed index with the
//      smallest value (so which exception wins is deterministic even though
//      scheduling is not).
//   3. No work-stealing, no priorities, no detach: a pool this simulator
//      needs is a queue, N workers, and a join.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace nvmsec {

/// Per-driver busy time from one parallel_for_each call: how long each
/// driver (pool workers plus the calling thread, last slot) spent inside
/// fn(), and how many indices it claimed. Idle time is the section wall
/// time minus busy_ns; the profiler's utilization report derives worker
/// imbalance from exactly this.
struct WorkerUtilization {
  std::uint64_t busy_ns{0};
  std::uint64_t tasks{0};
};

class ThreadPool {
 public:
  /// Spawns `workers` threads. Throws std::invalid_argument on 0 — a
  /// zero-worker pool would deadlock the first submit, so it is a config
  /// error, not a degenerate mode.
  explicit ThreadPool(std::size_t workers);

  /// Drains nothing: queued tasks that never started are dropped, running
  /// tasks are joined. Callers that care about completion hold the futures.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  /// Enqueue one task; the future rethrows any exception the task threw.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(0), fn(1), ..., fn(n-1) across the workers and block until all
  /// have finished. Indices are claimed dynamically (an atomic counter), so
  /// long and short items interleave without static partitioning skew. If
  /// any invocations throw, the exception from the smallest failing index
  /// is rethrown after every index has been attempted. Not reentrant: do
  /// not call from inside a pool task.
  void parallel_for_each(std::size_t n,
                         const std::function<void(std::size_t)>& fn);

  /// Same contract, plus per-driver utilization accounting: `utilization`
  /// is resized to drivers + 1 (each submitted driver occupies one worker
  /// for the whole call; the final slot is the calling thread) and each
  /// slot is written only by its own driver — the future join provides the
  /// happens-before, so there is no per-task synchronization cost.
  void parallel_for_each(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::vector<WorkerUtilization>* utilization);

  /// max(1, std::thread::hardware_concurrency()) — the default worker count
  /// everywhere a caller says "use all cores".
  static std::size_t hardware_workers();

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool stopping_{false};
};

}  // namespace nvmsec
