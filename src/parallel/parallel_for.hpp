/// \file parallel_for.hpp
/// Data-parallel loops over index ranges on a ThreadPool.
///
/// Work is split into contiguous chunks of at least \p grain iterations
/// (static chunking keeps per-task overhead negligible for simulation
/// trials, which dominate runtime anyway). The body receives the global
/// index, so deterministic per-index seeding works regardless of how the
/// range is split.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace mobsrv::par {

/// Invokes body(i) for i in [begin, end) across the pool. Blocks until all
/// iterations completed; rethrows the first exception a body threw. Called
/// from one of \p pool's own workers (a pool task that runs a nested loop),
/// it runs inline: that worker cannot wait for the pool to go idle.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, std::size_t grain,
                  Body&& body) {
  MOBSRV_CHECK(begin <= end);
  if (begin == end) return;
  if (grain == 0) grain = 1;
  const std::size_t total = end - begin;
  // No point paying queue overhead for tiny ranges or a single worker.
  if (total <= grain || pool.size() == 1 || pool.owns_current_thread()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t chunks = (total + grain - 1) / grain;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = lo + grain < end ? lo + grain : end;
    pool.submit([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  }
  pool.wait_idle();
}

/// Convenience overload on the global pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
  parallel_for(ThreadPool::global(), begin, end, grain, std::forward<Body>(body));
}

/// Maps fn over [0, n) into a vector. fn must be callable as fn(i) -> T and
/// safe to run concurrently for distinct indices.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_map(ThreadPool& pool, std::size_t n, std::size_t grain,
                                          Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(pool, 0, n, grain, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace mobsrv::par
