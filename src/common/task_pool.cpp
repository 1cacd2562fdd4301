#include "common/task_pool.h"

namespace tc {

size_t TaskPool::DefaultThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

TaskPool::TaskPool(size_t threads) {
  if (threads == 0) threads = DefaultThreadCount();
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

std::unique_ptr<TaskPool> TaskPool::Inline() {
  return std::unique_ptr<TaskPool>(new TaskPool(InlineTag{}));
}

TaskPool::~TaskPool() {
  RunUntilIdle();  // an inline pool has no workers to drain its queue
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void TaskPool::Submit(std::function<void()> fn, TaskPriority priority) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (priority == TaskPriority::kHigh) {
      high_queue_.push_back(std::move(fn));
    } else {
      queue_.push_back(std::move(fn));
    }
  }
  work_cv_.notify_one();
}

bool TaskPool::PopLocked(std::function<void()>* task) {
  std::deque<std::function<void()>>& q =
      !high_queue_.empty() ? high_queue_ : queue_;
  if (q.empty()) return false;
  *task = std::move(q.front());
  q.pop_front();
  return true;
}

void TaskPool::RunUntilIdle() {
  if (!is_inline()) return;
  while (true) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!PopLocked(&task)) return;
    }
    task();
  }
}

void TaskPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stop_ || !high_queue_.empty() || !queue_.empty();
    });
    // Drain both queues even when stopping: a discarded task would leave its
    // owner's TaskGroup outstanding count nonzero forever.
    std::function<void()> task;
    if (!PopLocked(&task)) return;
    lock.unlock();
    task();
    lock.lock();
  }
}

TaskGroup::TaskGroup(TaskPool* pool)
    : pool_(pool), shared_(std::make_shared<Shared>()) {}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::Submit(std::function<void(bool)> fn, TaskPriority priority) {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    ++shared_->outstanding;
  }
  pool_->Submit(
      [shared = shared_, fn = std::move(fn)] {
        bool canceled;
        {
          std::lock_guard<std::mutex> lock(shared->mu);
          canceled = shared->canceled;
        }
        fn(canceled);
        // Decrement AFTER the task body: Wait() returning guarantees no task
        // is still touching the state it captured.
        {
          std::lock_guard<std::mutex> lock(shared->mu);
          --shared->outstanding;
        }
        shared->cv.notify_all();
      },
      priority);
}

void TaskGroup::Cancel() {
  std::lock_guard<std::mutex> lock(shared_->mu);
  shared_->canceled = true;
}

void TaskGroup::Wait() {
  pool_->RunUntilIdle();
  std::unique_lock<std::mutex> lock(shared_->mu);
  shared_->cv.wait(lock, [this] { return shared_->outstanding == 0; });
}

size_t TaskGroup::outstanding() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->outstanding;
}

}  // namespace tc
