#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace mrsc::runtime {

std::size_t ThreadPool::default_worker_count() {
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = default_worker_count();
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

std::size_t ThreadPool::queued() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::size_t ThreadPool::active() const {
  std::lock_guard lock(mutex_);
  return in_flight_;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    work_available_.wait(lock,
                         [this] { return shutting_down_ || !queue_.empty(); });
    if (queue_.empty()) break;  // shutting_down_ && drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    task();
    lock.lock();
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
  }
}

}  // namespace mrsc::runtime
