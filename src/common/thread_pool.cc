#include "common/thread_pool.h"

#include <chrono>

namespace btrim {

namespace {
thread_local int tls_worker_id = 0;
}  // namespace

ThreadPool::ThreadPool(int workers) {
  if (workers <= 1) return;  // inline mode
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexGuard guard(mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

int ThreadPool::CurrentWorkerId() { return tls_worker_id; }

int64_t ThreadPool::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadPool::QueueDepth() const {
  MutexGuard guard(mu_);
  return static_cast<int64_t>(queue_.size());
}

void ThreadPool::RunTasks(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (threads_.empty()) {
    for (auto& fn : tasks) {
      fn();
      tasks_executed_.Inc();
    }
    return;
  }

  Batch batch;
  batch.remaining = tasks.size();
  MutexGuard guard(mu_);
  const int64_t now = NowMicros();
  for (auto& fn : tasks) {
    Task task;
    task.fn = std::move(fn);
    task.enqueue_us = now;
    task.batch = &batch;
    queue_.push_back(std::move(task));
  }
  work_cv_.NotifyAll();
  // batch lives on this stack frame but is only touched under mu_; the
  // last worker signals through the pool-lifetime done_cv_, so nothing
  // races with its destruction once the predicate holds.
  while (batch.remaining != 0) {
    done_cv_.Wait(guard);
  }
}

void ThreadPool::WorkerLoop(int worker_id) {
  tls_worker_id = worker_id;
  for (;;) {
    Task task;
    {
      MutexGuard guard(mu_);
      while (!stopping_ && queue_.empty()) {
        work_cv_.Wait(guard);
      }
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_wait_.Record(NowMicros() - task.enqueue_us);
    task.fn();
    tasks_executed_.Inc();
    MutexGuard done(mu_);
    if (--task.batch->remaining == 0) done_cv_.NotifyAll();
  }
}

}  // namespace btrim
