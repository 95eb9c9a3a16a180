// Tests for core::SessionMultiplexer: determinism for any thread count at
// >= 1000 concurrent sessions, accounting parity with individual engine
// runs, step/drain/snapshot semantics (sliced step() rounds end in the bits
// of one drain()), and error propagation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/workloads.hpp"
#include "algorithms/registry.hpp"
#include "core/session_multiplexer.hpp"
#include "ext/multi_server.hpp"
#include "stats/rng.hpp"

namespace mobsrv {
namespace {

using core::SessionMultiplexer;
using core::SessionSpec;
using core::SessionStats;

std::shared_ptr<const sim::Instance> sample_workload(std::uint64_t seed, std::size_t horizon) {
  adv::DriftingHotspotParams params;
  params.horizon = horizon;
  params.dim = 2;
  stats::Rng rng(seed);
  return std::make_shared<const sim::Instance>(adv::make_drifting_hotspot(params, rng));
}

/// Builds the same 1000-session mix every time: a handful of shared
/// workloads, heterogeneous horizons, all registered algorithms round-robin.
void populate(SessionMultiplexer& mux, std::size_t sessions) {
  const std::vector<std::string> names = alg::algorithm_names();
  std::vector<std::shared_ptr<const sim::Instance>> workloads;
  for (std::uint64_t w = 0; w < 5; ++w)
    workloads.push_back(sample_workload(w, 16 + 7 * w));  // horizons 16..44
  for (std::size_t s = 0; s < sessions; ++s) {
    SessionSpec spec;
    spec.workload = workloads[s % workloads.size()];
    spec.algorithm = names[s % names.size()];
    spec.algo_seed = s;
    spec.speed_factor = 1.5;
    spec.tenant = "tenant-" + std::to_string(s);
    mux.add(std::move(spec));
  }
}

TEST(SessionMultiplexer, ThousandSessionsDeterministicForAnyThreadCount) {
  constexpr std::size_t kSessions = 1000;
  std::vector<std::vector<SessionStats>> snapshots;
  for (const unsigned threads : {1u, 3u, 8u}) {
    par::ThreadPool pool(threads);
    SessionMultiplexer mux(pool, /*grain=*/7);
    populate(mux, kSessions);
    EXPECT_EQ(mux.size(), kSessions);
    mux.drain();
    EXPECT_EQ(mux.live(), 0u);
    snapshots.push_back(mux.snapshot());
  }
  ASSERT_EQ(snapshots[0].size(), kSessions);
  for (std::size_t v = 1; v < snapshots.size(); ++v) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      // EXACT equality across thread counts — scheduling must be invisible.
      EXPECT_EQ(snapshots[v][s].total_cost, snapshots[0][s].total_cost) << s;
      EXPECT_EQ(snapshots[v][s].move_cost, snapshots[0][s].move_cost) << s;
      EXPECT_EQ(snapshots[v][s].service_cost, snapshots[0][s].service_cost) << s;
      EXPECT_EQ(snapshots[v][s].position, snapshots[0][s].position) << s;
      EXPECT_EQ(snapshots[v][s].steps, snapshots[0][s].steps) << s;
    }
  }
}

TEST(SessionMultiplexer, MatchesIndividualEngineRunsBitIdentically) {
  par::ThreadPool pool(4);
  SessionMultiplexer mux(pool);
  const auto workload = sample_workload(21, 40);
  const std::vector<std::string> names = alg::algorithm_names();
  for (std::size_t a = 0; a < names.size(); ++a) {
    SessionSpec spec;
    spec.workload = workload;
    spec.algorithm = names[a];
    spec.algo_seed = 9000 + a;
    spec.speed_factor = 1.5;
    mux.add(std::move(spec));
  }
  mux.drain();
  for (std::size_t a = 0; a < names.size(); ++a) {
    const sim::AlgorithmPtr algo = alg::make_algorithm(names[a], 9000 + a);
    sim::RunOptions options;
    options.speed_factor = 1.5;
    const sim::RunResult reference = sim::run(*workload, *algo, options);
    const SessionStats stats = mux.stats(a);
    EXPECT_EQ(stats.total_cost, reference.total_cost) << names[a];
    EXPECT_EQ(stats.move_cost, reference.move_cost) << names[a];
    EXPECT_EQ(stats.service_cost, reference.service_cost) << names[a];
    EXPECT_EQ(stats.position, reference.final_position) << names[a];
  }
}

TEST(SessionMultiplexer, StepAdvancesHeterogeneousHorizonsToCompletion) {
  par::ThreadPool pool(2);
  SessionMultiplexer mux(pool);
  const auto short_workload = sample_workload(1, 10);
  const auto long_workload = sample_workload(2, 35);
  for (const auto& workload : {short_workload, long_workload}) {
    SessionSpec spec;
    spec.workload = workload;
    spec.algorithm = "MtC";
    spec.speed_factor = 1.5;
    mux.add(std::move(spec));
  }
  EXPECT_EQ(mux.live(), 2u);

  EXPECT_EQ(mux.step(10), 1u);  // short session finished exactly at its horizon
  EXPECT_EQ(mux.stats(0).steps, 10u);
  EXPECT_TRUE(mux.stats(0).done);
  EXPECT_EQ(mux.stats(1).steps, 10u);
  EXPECT_FALSE(mux.stats(1).done);

  EXPECT_EQ(mux.step(100), 0u);  // capped at the remaining workload
  EXPECT_EQ(mux.stats(1).steps, 35u);

  const core::MuxTotals totals = mux.totals();
  EXPECT_EQ(totals.sessions, 2u);
  EXPECT_EQ(totals.live, 0u);
  EXPECT_EQ(totals.steps, 45u);
  EXPECT_DOUBLE_EQ(totals.total_cost, mux.stats(0).total_cost + mux.stats(1).total_cost);
}

TEST(SessionMultiplexer, SnapshotCarriesTenantAndProgress) {
  par::ThreadPool pool(2);
  SessionMultiplexer mux(pool);
  SessionSpec spec;
  spec.workload = sample_workload(3, 12);
  spec.algorithm = "Lazy";
  spec.tenant = "edge-eu-1";
  mux.add(std::move(spec));
  mux.step(5);
  const std::vector<SessionStats> snapshot = mux.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].tenant, "edge-eu-1");
  EXPECT_EQ(snapshot[0].algorithm, "Lazy");
  EXPECT_EQ(snapshot[0].steps, 5u);
  EXPECT_EQ(snapshot[0].horizon, 12u);
  EXPECT_FALSE(snapshot[0].done);
}

TEST(SessionMultiplexer, CloseCachesFinalAccountingAndReleasesTheSlot) {
  par::ThreadPool pool(2);
  SessionMultiplexer mux(pool);
  populate(mux, 6);
  mux.step(5);
  const SessionStats before = mux.stats(2);
  mux.close(2);
  EXPECT_TRUE(mux.closed(2));
  mux.close(2);  // idempotent
  const SessionStats cached = mux.stats(2);
  EXPECT_TRUE(cached.closed);
  EXPECT_EQ(cached.steps, before.steps);
  EXPECT_EQ(cached.total_cost, before.total_cost);
  EXPECT_EQ(cached.positions, before.positions);

  mux.drain();  // a closed slot never advances again
  EXPECT_EQ(mux.stats(2).steps, before.steps);
  EXPECT_EQ(mux.live(), 0u);

  // Totals keep the closed slot's accounting on the books.
  const core::MuxTotals totals = mux.totals();
  EXPECT_EQ(totals.sessions, 6u);
  EXPECT_EQ(totals.closed, 1u);
  double sum = 0.0;
  for (std::size_t s = 0; s < mux.size(); ++s) sum += mux.stats(s).total_cost;
  EXPECT_DOUBLE_EQ(totals.total_cost, sum);

  // checkpoint() covers open slots only.
  EXPECT_EQ(mux.checkpoint().size(), 5u);
}

TEST(SessionMultiplexer, StepCapturingMatchesStepWhenNothingThrows) {
  par::ThreadPool pool(3);
  SessionMultiplexer plain(pool);
  SessionMultiplexer capturing(pool);
  populate(plain, 50);
  populate(capturing, 50);
  std::vector<SessionMultiplexer::SlotError> errors;
  while (plain.live() > 0) {
    const std::size_t a = plain.step(2);
    const std::size_t b = capturing.step_capturing(2, errors);
    EXPECT_EQ(a, b);
  }
  EXPECT_TRUE(errors.empty());
  for (std::size_t s = 0; s < plain.size(); ++s) {
    EXPECT_EQ(capturing.stats(s).total_cost, plain.stats(s).total_cost) << s;
    EXPECT_EQ(capturing.stats(s).steps, plain.stats(s).steps) << s;
  }
}

TEST(SessionMultiplexer, GrowingWorkloadWakesFinishedSessions) {
  // The streaming-ingestion contract: serve/ appends batches to a tenant's
  // Instance in place, and the next step() re-evaluates done-ness.
  par::ThreadPool pool(2);
  SessionMultiplexer mux(pool);
  auto workload = std::make_shared<sim::Instance>(geo::Point{0.0, 0.0}, sim::ModelParams{},
                                                  sim::RequestStore(2));
  SessionSpec spec;
  spec.workload = workload;
  spec.algorithm = "MtC";
  spec.speed_factor = 1.5;
  mux.add(std::move(spec));
  EXPECT_EQ(mux.live(), 0u);  // empty workload: nothing to do yet

  sim::RequestBatch batch;
  batch.requests = {geo::Point{1.0, 2.0}, geo::Point{-0.5, 0.25}};
  workload->push_step(batch);
  EXPECT_EQ(mux.step(10), 0u);
  EXPECT_EQ(mux.stats(0).steps, 1u);
  EXPECT_TRUE(mux.stats(0).done);
  EXPECT_GT(mux.stats(0).total_cost, 0.0);

  // ...and again after finishing: the session keeps waking up.
  workload->push_step(batch);
  workload->push_step(sim::BatchView{});  // idle step
  mux.drain();
  EXPECT_EQ(mux.stats(0).steps, 3u);
}

TEST(SessionMultiplexer, UnknownAlgorithmThrowsOnAdd) {
  par::ThreadPool pool(1);
  SessionMultiplexer mux(pool);
  SessionSpec spec;
  spec.workload = sample_workload(4, 8);
  spec.algorithm = "NoSuchAlgorithm";
  EXPECT_THROW(mux.add(std::move(spec)), ContractViolation);
  EXPECT_EQ(mux.size(), 0u);
}

TEST(SessionMultiplexer, InvalidSpecRejectedOnAdd) {
  par::ThreadPool pool(2);
  SessionMultiplexer mux(pool);
  SessionSpec bad;
  bad.workload = sample_workload(5, 8);
  bad.algorithm = "MtC";
  bad.speed_factor = 0.5;  // < 1 violates the run-options contract
  EXPECT_THROW(mux.add(std::move(bad)), ContractViolation);

  SessionSpec null_workload;
  null_workload.algorithm = "MtC";
  EXPECT_THROW(mux.add(std::move(null_workload)), ContractViolation);
  EXPECT_EQ(mux.size(), 0u);
}

TEST(SessionMultiplexer, StepsPerSessionSurvivesTenantChurn) {
  // The closed-slot carry: totals().steps_per_session must keep counting
  // every session this mux ever ran, not just whoever is open right now.
  par::ThreadPool pool(4);
  SessionMultiplexer mux(pool);
  populate(mux, 20);  // horizons 16..44
  mux.drain();
  const core::MuxTotals before = mux.totals();
  EXPECT_EQ(before.steps_per_session.count, 20u);
  EXPECT_EQ(before.steps_per_session.sum, before.steps);

  // Close half the sessions — their step counts must stay in the merge.
  for (std::size_t id = 0; id < 10; ++id) mux.close(id);
  const core::MuxTotals after = mux.totals();
  EXPECT_EQ(after.steps_per_session.count, 20u);
  EXPECT_EQ(after.steps_per_session.sum, after.steps);
  EXPECT_EQ(after.steps_per_session.p50, before.steps_per_session.p50);
  EXPECT_EQ(after.steps_per_session.max, before.steps_per_session.max);

  // Close everything: the distribution is now entirely the closed carry.
  for (std::size_t id = 10; id < 20; ++id) mux.close(id);
  const core::MuxTotals closed = mux.totals();
  EXPECT_EQ(closed.closed, 20u);
  EXPECT_EQ(closed.steps_per_session.count, 20u);
  EXPECT_EQ(closed.steps_per_session.sum, closed.steps);
}

TEST(SessionMultiplexer, QueueDepthTracksPendingSteps) {
  par::ThreadPool pool(2);
  SessionMultiplexer mux(pool);
  const auto workload = sample_workload(3, 12);
  for (int s = 0; s < 3; ++s) {
    SessionSpec spec;
    spec.workload = workload;
    spec.algorithm = "MtC";
    spec.algo_seed = static_cast<std::uint64_t>(s);
    spec.speed_factor = 1.5;
    mux.add(std::move(spec));
  }
  EXPECT_EQ(mux.totals().queue_depth, 3u * 12u);
  mux.step(5);
  EXPECT_EQ(mux.totals().queue_depth, 3u * 7u);
  mux.close(0);  // a closed slot contributes no pending work
  EXPECT_EQ(mux.totals().queue_depth, 2u * 7u);
  mux.drain();
  EXPECT_EQ(mux.totals().queue_depth, 0u);
}

TEST(SessionMultiplexer, RoundTimingIsObservationalAndSwitchable) {
  par::ThreadPool pool(2);
  SessionMultiplexer timed(pool);
  SessionMultiplexer lean(pool);
  lean.set_timing_enabled(false);
  EXPECT_TRUE(timed.timing_enabled());
  EXPECT_FALSE(lean.timing_enabled());
  populate(timed, 8);
  populate(lean, 8);

  std::size_t rounds = 0;
  while (timed.step(1) > 0) ++rounds;
  while (lean.step(1) > 0) {
  }
  // One histogram entry per round; none on the lean path. The loop's final
  // call (returning 0) still ran — and timed — a round.
  EXPECT_EQ(timed.totals().step_latency.count, rounds + 1);
  EXPECT_EQ(lean.totals().step_latency.count, 0u);

  // Timing is observational only: results are bit-identical either way.
  const std::vector<SessionStats> a = timed.snapshot();
  const std::vector<SessionStats> b = lean.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].total_cost, b[s].total_cost) << s;
    EXPECT_EQ(a[s].position, b[s].position) << s;
  }
}

// ---------------------------------------------------------------------------
// Active-set scheduling: parked/ready split, growth wakeups, poke().
// ---------------------------------------------------------------------------

TEST(SessionMultiplexer, ActiveTracksTheReadySetAcrossRounds) {
  par::ThreadPool pool(2);
  SessionMultiplexer mux(pool);
  populate(mux, 6);
  EXPECT_EQ(mux.active(), 6u);  // armed on add: every workload has steps
  mux.step(5);
  EXPECT_EQ(mux.active(), 6u);  // still pending after 5 of 16+ steps
  mux.drain();
  EXPECT_EQ(mux.active(), 0u);  // everyone parked at their horizon
  EXPECT_EQ(mux.totals().active, 0u);
}

TEST(SessionMultiplexer, IdleGrowthWakesParkedSessionsAtAnyThreadCount) {
  // The streaming contract under the active-set scheduler: a parked
  // session whose Instance gained steps between rounds is re-armed by the
  // very next step()/step_capturing()/drain() (the empty-ready rescan) —
  // no poke() required when the mux had nothing else to run.
  for (const unsigned threads : {1u, 3u, 8u}) {
    par::ThreadPool pool(threads);
    SessionMultiplexer mux(pool, /*grain=*/3);
    std::vector<std::shared_ptr<sim::Instance>> workloads;
    for (int s = 0; s < 9; ++s) {
      auto workload = std::make_shared<sim::Instance>(geo::Point{0.0, 0.0}, sim::ModelParams{},
                                                      sim::RequestStore(2));
      SessionSpec spec;
      spec.workload = workload;
      spec.algorithm = "MtC";
      spec.speed_factor = 1.5;
      spec.algo_seed = static_cast<std::uint64_t>(s);
      mux.add(std::move(spec));
      workloads.push_back(std::move(workload));
    }
    EXPECT_EQ(mux.active(), 0u);  // all parked: empty workloads

    sim::RequestBatch batch;
    batch.requests = {geo::Point{1.0, 2.0}, geo::Point{-0.5, 0.25}};

    // step(): every grown session advances in the next round.
    for (auto& workload : workloads) workload->push_step(batch);
    mux.step(10);
    for (std::size_t s = 0; s < workloads.size(); ++s)
      EXPECT_EQ(mux.stats(s).steps, 1u) << "threads=" << threads << " slot=" << s;

    // step_capturing(): same wakeup on the error-capturing path.
    for (auto& workload : workloads) workload->push_step(batch);
    std::vector<SessionMultiplexer::SlotError> errors;
    mux.step_capturing(10, errors);
    EXPECT_TRUE(errors.empty());
    for (std::size_t s = 0; s < workloads.size(); ++s)
      EXPECT_EQ(mux.stats(s).steps, 2u) << "threads=" << threads << " slot=" << s;

    // drain(): always rescans, so growth is consumed to the new horizon.
    for (auto& workload : workloads) {
      workload->push_step(batch);
      workload->push_step(sim::BatchView{});
    }
    mux.drain();
    for (std::size_t s = 0; s < workloads.size(); ++s)
      EXPECT_EQ(mux.stats(s).steps, 4u) << "threads=" << threads << " slot=" << s;
    EXPECT_EQ(mux.active(), 0u);
  }
}

TEST(SessionMultiplexer, PokeRearmsAParkedSessionWhileOthersRun) {
  // With other sessions still ready, step() never rescans the whole table
  // (that would be O(sessions) again) — a busy mux learns about growth
  // from poke(), the serve layer's job after push_step.
  par::ThreadPool pool(2);
  SessionMultiplexer mux(pool);
  auto grower = std::make_shared<sim::Instance>(geo::Point{0.0, 0.0}, sim::ModelParams{},
                                                sim::RequestStore(2));
  SessionSpec spec;
  spec.workload = grower;
  spec.algorithm = "MtC";
  spec.speed_factor = 1.5;
  mux.add(std::move(spec));
  SessionSpec busy;
  busy.workload = sample_workload(11, 30);
  busy.algorithm = "MtC";
  busy.speed_factor = 1.5;
  mux.add(std::move(busy));
  EXPECT_EQ(mux.active(), 1u);  // only the busy session is armed

  sim::RequestBatch batch;
  batch.requests = {geo::Point{1.0, 2.0}};
  grower->push_step(batch);
  mux.step(1);
  EXPECT_EQ(mux.stats(0).steps, 0u);  // parked: ready list was not empty
  mux.poke(0);
  EXPECT_EQ(mux.active(), 2u);
  mux.step(1);
  EXPECT_EQ(mux.stats(0).steps, 1u);
  // poke() on an armed, a done, and a closed slot is a safe no-op.
  mux.poke(0);
  mux.poke(0);
  mux.close(0);
  mux.poke(0);
  EXPECT_EQ(mux.active(), 1u);
}

// ---------------------------------------------------------------------------
// Per-tenant rate limits: token bucket, throttled counters, invariance.
// ---------------------------------------------------------------------------

TEST(SessionMultiplexer, RateLimitCapsStepsPerRoundAndCountsThrottles) {
  par::ThreadPool pool(2);
  SessionMultiplexer mux(pool);
  SessionSpec spec;
  spec.workload = sample_workload(7, 6);
  spec.algorithm = "MtC";
  spec.speed_factor = 1.5;
  spec.rate.steps_per_round = 1.0;  // burst derives to 1
  mux.add(std::move(spec));

  std::size_t rounds = 0;
  while (mux.live() > 0) {
    mux.step(10);  // asks for up to 10; the bucket allows 1
    ++rounds;
    ASSERT_LE(rounds, 16u);
  }
  EXPECT_EQ(rounds, 6u);
  const SessionStats stats = mux.stats(0);
  EXPECT_EQ(stats.steps, 6u);
  // Rounds 1..5 wanted >1 step and got 1; the last round wanted exactly 1.
  EXPECT_EQ(stats.throttled_rounds, 5u);
  EXPECT_EQ(mux.totals().throttled, 5u);

  // drain() ignores rate limits (shutdown must finish) and never counts
  // phantom throttles.
  SessionMultiplexer draining(pool);
  SessionSpec limited;
  limited.workload = sample_workload(7, 6);
  limited.algorithm = "MtC";
  limited.speed_factor = 1.5;
  limited.rate.steps_per_round = 0.25;
  draining.add(std::move(limited));
  draining.drain();
  EXPECT_EQ(draining.stats(0).steps, 6u);
  EXPECT_EQ(draining.stats(0).throttled_rounds, 0u);
}

TEST(SessionMultiplexer, FractionalRateStepsEveryOtherRound) {
  par::ThreadPool pool(1);
  SessionMultiplexer mux(pool);
  SessionSpec spec;
  spec.workload = sample_workload(8, 4);
  spec.algorithm = "MtC";
  spec.speed_factor = 1.5;
  spec.rate.steps_per_round = 0.5;
  spec.rate.burst = 1.0;
  mux.add(std::move(spec));
  std::vector<std::size_t> cursor;
  for (int round = 0; round < 7 && mux.live() > 0; ++round) {
    mux.step(1);
    cursor.push_back(mux.stats(0).steps);
  }
  // Burst of 1 on arming, then a step every other round.
  EXPECT_EQ(cursor, (std::vector<std::size_t>{1, 1, 2, 2, 3, 3, 4}));
  EXPECT_EQ(mux.stats(0).steps, 4u);
}

TEST(SessionMultiplexer, RateLimitsNeverChangeResults) {
  // Scheduling-only: a throttled session takes more rounds but lands on
  // bit-identical accounting. Token state is deliberately not part of the
  // checkpoint for the same reason.
  par::ThreadPool pool(4);
  SessionMultiplexer plain(pool);
  SessionMultiplexer limited(pool);
  const auto workload = sample_workload(13, 25);
  const std::vector<std::string> names = alg::algorithm_names();
  for (std::size_t a = 0; a < names.size(); ++a) {
    SessionSpec spec;
    spec.workload = workload;
    spec.algorithm = names[a];
    spec.algo_seed = 100 + a;
    spec.speed_factor = 1.5;
    plain.add(std::move(spec));
    SessionSpec throttled;
    throttled.workload = workload;
    throttled.algorithm = names[a];
    throttled.algo_seed = 100 + a;
    throttled.speed_factor = 1.5;
    throttled.rate.steps_per_round = 0.5 + static_cast<double>(a % 3);
    limited.add(std::move(throttled));
  }
  while (plain.step(3) > 0) {
  }
  while (limited.step(3) > 0) {
  }
  for (std::size_t s = 0; s < plain.size(); ++s) {
    EXPECT_EQ(limited.stats(s).total_cost, plain.stats(s).total_cost) << s;
    EXPECT_EQ(limited.stats(s).position, plain.stats(s).position) << s;
    EXPECT_EQ(limited.stats(s).steps, plain.stats(s).steps) << s;
  }
  EXPECT_GT(limited.totals().throttled, 0u);
  EXPECT_EQ(plain.totals().throttled, 0u);
}

TEST(SessionMultiplexer, InvalidRateLimitsRejectedOnAdd) {
  par::ThreadPool pool(1);
  SessionMultiplexer mux(pool);
  SessionSpec negative;
  negative.workload = sample_workload(5, 8);
  negative.algorithm = "MtC";
  negative.rate.steps_per_round = -1.0;
  EXPECT_THROW(mux.add(std::move(negative)), ContractViolation);

  SessionSpec sub_one_burst;
  sub_one_burst.workload = sample_workload(5, 8);
  sub_one_burst.algorithm = "MtC";
  sub_one_burst.rate.steps_per_round = 2.0;
  sub_one_burst.rate.burst = 0.5;  // a bucket that can never hold one step
  EXPECT_THROW(mux.add(std::move(sub_one_burst)), ContractViolation);

  SessionSpec burst_without_rate;
  burst_without_rate.workload = sample_workload(5, 8);
  burst_without_rate.algorithm = "MtC";
  burst_without_rate.rate.burst = 4.0;
  EXPECT_THROW(mux.add(std::move(burst_without_rate)), ContractViolation);
  EXPECT_EQ(mux.size(), 0u);
}

TEST(SessionMultiplexer, PriorityOrdersDispatchWithoutChangingResults) {
  std::vector<std::vector<SessionStats>> snapshots;
  for (const unsigned threads : {1u, 3u, 8u}) {
    par::ThreadPool pool(threads);
    SessionMultiplexer mux(pool, /*grain=*/5);
    populate(mux, 200);
    // Adversarial priorities: reverse of slot order, reassigned mid-run.
    for (std::size_t s = 0; s < mux.size(); ++s)
      mux.set_priority(s, static_cast<double>(mux.size() - s));
    mux.step(4);
    for (std::size_t s = 0; s < mux.size(); ++s)
      mux.set_priority(s, static_cast<double>(s % 7));
    mux.drain();
    snapshots.push_back(mux.snapshot());
  }
  par::ThreadPool pool(4);
  SessionMultiplexer unprioritised(pool);
  populate(unprioritised, 200);
  unprioritised.drain();
  snapshots.push_back(unprioritised.snapshot());
  for (std::size_t v = 1; v < snapshots.size(); ++v)
    for (std::size_t s = 0; s < snapshots[0].size(); ++s) {
      EXPECT_EQ(snapshots[v][s].total_cost, snapshots[0][s].total_cost) << s;
      EXPECT_EQ(snapshots[v][s].position, snapshots[0][s].position) << s;
    }
}

// ---------------------------------------------------------------------------
// Dirty-slot tracking: the incremental-checkpoint building block.
// ---------------------------------------------------------------------------

TEST(SessionMultiplexer, DirtySlotsTrackStepsSinceMarkSaved) {
  par::ThreadPool pool(2);
  SessionMultiplexer mux(pool);
  populate(mux, 4);
  // Never-saved slots are dirty even at cursor 0 (a fresh mux must write
  // everything into its first save).
  EXPECT_EQ(mux.dirty_slots().size(), 4u);
  mux.mark_saved();
  EXPECT_TRUE(mux.dirty_slots().empty());

  mux.step(3);
  EXPECT_EQ(mux.dirty_slots().size(), 4u);
  mux.mark_saved();
  EXPECT_TRUE(mux.dirty_slots().empty());

  // Per-slot records match the bulk checkpoint for the same slot.
  const auto records = mux.checkpoint();
  for (std::size_t s = 0; s < mux.size(); ++s) {
    const core::SessionCheckpointRecord record = mux.checkpoint_slot(s);
    EXPECT_EQ(record.cursor, records[s].cursor) << s;
    EXPECT_EQ(record.tenant, records[s].tenant) << s;
  }

  // A closed slot can never be dirty.
  mux.close(0);
  mux.step(2);
  const std::vector<std::size_t> dirty = mux.dirty_slots();
  EXPECT_EQ(dirty.size(), 3u);
  for (const std::size_t id : dirty) EXPECT_NE(id, 0u);
}

/// A double's exact bits: -0.0, NaN payloads and the last ulp all count.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_point_bits(const sim::Point& a, const sim::Point& b, const std::string& what) {
  ASSERT_EQ(a.dim(), b.dim()) << what;
  for (int i = 0; i < a.dim(); ++i) EXPECT_EQ(bits(a[i]), bits(b[i])) << what << " coord " << i;
}

TEST(SessionMultiplexer, SlicedStepsMatchDrainBitIdentically) {
  // The tournament advances each cell in bounded step() slices, on
  // whichever worker is free, instead of one drain(): the session must end
  // in exactly the state one drain() leaves, for every fleet algorithm.
  par::ThreadPool pool(3);
  const auto workload = sample_workload(77, 2500);
  struct Case {
    std::string algorithm;
    std::size_t fleet_size;
  };
  std::vector<Case> cases;
  for (const std::string& name : alg::fleet_algorithm_names()) cases.push_back({name, 1});
  for (const std::string& name : alg::fleet_native_names()) cases.push_back({name, 4});

  const auto run = [&](const Case& c, std::size_t slice) {
    SessionMultiplexer mux(pool);
    SessionSpec spec;
    spec.workload = workload;
    spec.algorithm = c.algorithm;
    spec.algo_seed = 0x5eed + c.fleet_size;  // CoinFlip draws from it
    spec.speed_factor = 1.5;
    spec.fleet_size = c.fleet_size;
    if (c.fleet_size > 1) spec.starts = ext::spread_starts(*workload, 4, 3.0);
    mux.add(std::move(spec));
    if (slice == 0) {
      mux.drain();
    } else {
      while (mux.step(slice) > 0) {
      }
    }
    return mux.stats(0);
  };

  for (const Case& c : cases) {
    const SessionStats drained = run(c, 0);
    ASSERT_EQ(drained.steps, workload->horizon()) << c.algorithm;
    for (const std::size_t slice : {std::size_t{1}, std::size_t{7}, std::size_t{1024}}) {
      const std::string what = c.algorithm + " k=" + std::to_string(c.fleet_size) + " slice " +
                               std::to_string(slice);
      const SessionStats sliced = run(c, slice);
      EXPECT_EQ(sliced.steps, drained.steps) << what;
      EXPECT_TRUE(sliced.done) << what;
      EXPECT_EQ(bits(sliced.total_cost), bits(drained.total_cost)) << what;
      EXPECT_EQ(bits(sliced.move_cost), bits(drained.move_cost)) << what;
      EXPECT_EQ(bits(sliced.service_cost), bits(drained.service_cost)) << what;
      ASSERT_EQ(sliced.per_server_move_cost.size(), c.fleet_size) << what;
      ASSERT_EQ(sliced.per_server_move_cost.size(), drained.per_server_move_cost.size()) << what;
      for (std::size_t k = 0; k < c.fleet_size; ++k)
        EXPECT_EQ(bits(sliced.per_server_move_cost[k]), bits(drained.per_server_move_cost[k]))
            << what << " server " << k;
      ASSERT_EQ(sliced.positions.size(), drained.positions.size()) << what;
      for (std::size_t k = 0; k < sliced.positions.size(); ++k)
        expect_same_point_bits(sliced.positions[k], drained.positions[k],
                               what + " server " + std::to_string(k));
    }
  }
}

}  // namespace
}  // namespace mobsrv
