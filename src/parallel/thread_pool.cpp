#include "parallel/thread_pool.hpp"

#include <algorithm>

namespace mobsrv::par {

namespace {

/// The pool whose worker_loop runs on this thread (null elsewhere).
thread_local const ThreadPool* current_owner = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MOBSRV_CHECK_MSG(task != nullptr, "null task");
  {
    std::lock_guard lock(mutex_);
    MOBSRV_CHECK_MSG(!stopping_, "submit() on a stopping pool");
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

bool ThreadPool::owns_current_thread() const noexcept { return current_owner == this; }

void ThreadPool::worker_loop() {
  current_owner = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      task();
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mobsrv::par
