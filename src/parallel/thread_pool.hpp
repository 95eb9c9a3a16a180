/// \file thread_pool.hpp
/// A fixed-size worker pool with exception propagation.
///
/// The experiment harness runs hundreds of independent simulation trials;
/// the pool executes them across hardware threads while `parallel_for`
/// guarantees that results are written to caller-owned slots, so no
/// synchronisation is needed beyond the final join. Determinism is preserved
/// because every trial seeds its own RNG from its index, never from shared
/// state (see stats/rng.hpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/contracts.hpp"

namespace mobsrv::par {

/// Fixed-size thread pool. Tasks are arbitrary void() callables; the first
/// exception thrown by any task in a wait_idle() epoch is captured and
/// rethrown to the caller of wait_idle(). Destruction joins all workers.
class ThreadPool {
 public:
  /// Creates \p threads workers; 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task. Thread-safe.
  void submit(std::function<void()> task);

  /// Blocks until the queue is drained and all workers are idle, then
  /// rethrows the first captured task exception (if any). Never call it
  /// from one of this pool's own workers: that worker counts as busy, so
  /// the wait would never end.
  void wait_idle();

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool owns_current_thread() const noexcept;

  /// The process-wide default pool (lazily constructed with
  /// hardware_concurrency workers). Intended for the experiment harness;
  /// tests construct their own pools.
  [[nodiscard]] static ThreadPool& global();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::exception_ptr first_error_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

}  // namespace mobsrv::par
