// Fixed-size worker pool for the batch-execution runtime.
//
// Deliberately simple: one mutex-guarded FIFO task queue feeding a fixed set
// of workers. The simulation jobs this pool carries run for milliseconds to
// seconds each, so queue contention is irrelevant next to job cost; what
// matters is a clean lifecycle. The contract:
//
//   * submit() never blocks (beyond the queue lock) and may be called from
//     any thread, including from inside a running task.
//   * wait_idle() blocks until every submitted task has finished executing.
//   * The destructor drains the queue: tasks already submitted are run to
//     completion before the workers join. Shutdown under pending work is
//     therefore deterministic — nothing is silently dropped. Callers that
//     want to abandon work early cancel it cooperatively (see BatchRunner)
//     before destroying the pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mrsc::runtime {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 selects `default_worker_count()`.
  explicit ThreadPool(std::size_t workers);

  /// Drains all pending tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. Tasks must not throw; wrap fallible work
  /// in its own try/catch (BatchRunner converts exceptions into JobResults).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing.
  void wait_idle();

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Introspection hooks for admission control and stats endpoints (serve/).
  /// `queued()` counts tasks submitted but not yet picked up by a worker;
  /// `active()` counts tasks currently executing. Both take the queue lock,
  /// so they are exact snapshots, not races — cheap enough for a stats poll,
  /// not meant for per-event hot paths.
  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] std::size_t active() const;

  /// Hardware concurrency, clamped to at least 1.
  [[nodiscard]] static std::size_t default_worker_count();

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // tasks popped but not yet finished
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mrsc::runtime
