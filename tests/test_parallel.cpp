// Unit tests for parallel/: ThreadPool lifecycle, exception propagation,
// parallel_for chunking — and the determinism guarantee the experiment
// harness depends on (results independent of thread count).
#include "parallel/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "stats/rng.hpp"

namespace mobsrv::par {
namespace {

TEST(ThreadPool, ConstructsRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  ThreadPool defaulted(0);
  EXPECT_GE(defaulted.size(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable and the error does not repeat.
  std::atomic<int> counter{0};
  pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, RejectsNullTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), ContractViolation);
}

TEST(ThreadPool, DestructionJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 20; ++i) pool.submit([&] { counter.fetch_add(1); });
    pool.wait_idle();
  }  // destructor joins
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, 7, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, BackwardsRangeThrows) {
  ThreadPool pool(1);
  EXPECT_THROW(parallel_for(pool, 5, 4, 1, [](std::size_t) {}), ContractViolation);
}

TEST(ParallelFor, GrainZeroTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 10, 0, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelFor, SubRangeRespectsBounds) {
  ThreadPool pool(2);
  std::vector<int> hits(20, 0);
  std::mutex m;
  parallel_for(pool, 5, 15, 3, [&](std::size_t i) {
    std::lock_guard lock(m);
    hits[i]++;
  });
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(hits[i], (i >= 5 && i < 15) ? 1 : 0);
}

TEST(ParallelFor, NestedLoopOnTheSamePoolRunsInlineAndCoversEveryIndex) {
  // A pool task that runs its own parallel_for on the same pool must not
  // wait for the pool to go idle: it counts as busy itself.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 100;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> on_worker{0};
  EXPECT_FALSE(pool.owns_current_thread());
  parallel_for(pool, 0, kOuter, 1, [&](std::size_t outer) {
    if (pool.owns_current_thread()) on_worker.fetch_add(1);
    parallel_for(pool, 0, kInner, 3,
                 [&](std::size_t inner) { hits[outer * kInner + inner].fetch_add(1); });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_EQ(on_worker.load(), static_cast<int>(kOuter));

  // Another pool's worker is not an owner: its loop still fans out.
  ThreadPool other(2);
  std::atomic<int> inner_hits{0};
  parallel_for(pool, 0, 2, 1, [&](std::size_t) {
    EXPECT_FALSE(other.owns_current_thread());
    parallel_for(other, 0, 10, 1, [&](std::size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 20);
}

TEST(ParallelFor, ExceptionInBodyPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 100, 1,
                            [](std::size_t i) {
                              if (i == 42) throw std::logic_error("bad index");
                            }),
               std::logic_error);
}

TEST(ParallelMap, CollectsResultsInOrder) {
  ThreadPool pool(3);
  const std::vector<int> out =
      parallel_map<int>(pool, 50, 4, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(out[i], static_cast<int>(i * i));
}

// The determinism contract: per-index seeded computation gives identical
// results for 1 and N workers regardless of scheduling.
TEST(ParallelFor, DeterministicAcrossThreadCounts) {
  auto run_with = [](unsigned threads) {
    ThreadPool pool(threads);
    return parallel_map<double>(pool, 64, 1, [](std::size_t i) {
      stats::Rng rng({stats::hash_name("det"), static_cast<std::uint64_t>(i)});
      double acc = 0.0;
      for (int k = 0; k < 100; ++k) acc += rng.normal();
      return acc;
    });
  };
  const auto serial = run_with(1);
  const auto parallel4 = run_with(4);
  const auto parallel7 = run_with(7);
  EXPECT_EQ(serial, parallel4);
  EXPECT_EQ(serial, parallel7);
}

TEST(ParallelFor, LargeGrainFallsBackToSerial) {
  ThreadPool pool(4);
  // total <= grain: runs inline on the calling thread.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(8);
  parallel_for(pool, 0, 8, 100, [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

}  // namespace
}  // namespace mobsrv::par
