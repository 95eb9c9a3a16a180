// Tests for the unified fleet-session engine (sim/fleet.hpp + the k >= 1
// sim::Session):
//   * the k = 1 adapter reproduces sim::run bit-identically for every
//     registered algorithm across the trace corpus;
//   * ext::run_multi — now a thin loop over the fleet Session — reproduces
//     the seed's private batch engine bit-identically (the old loop is
//     frozen here verbatim, the PR-3 treatment of the AoS engine);
//   * fleet semantics: nearest-server service, per-server limits and move
//     split, kThrow's no-mutation guarantee, service-order handling;
//   * k-server SessionSpecs drain through core::SessionMultiplexer with
//     per-server stats, deterministically for any thread count.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <span>

#include "algorithms/move_to_center.hpp"
#include "algorithms/registry.hpp"
#include "core/session_multiplexer.hpp"
#include "ext/multi_server.hpp"
#include "median/geometric_median.hpp"
#include "scenario/scenario.hpp"
#include "sim/session.hpp"
#include "stats/rng.hpp"

namespace mobsrv {
namespace {

using geo::Point;

// ---------------------------------------------------------------------------
// Frozen pre-redesign multi-server engine. This reproduces the seed's
// ext::run_multi verbatim — owning servers vector in the step view, decide()
// returning a fresh vector, unconditional clamping, nearest-server service —
// so the comparison pins "thin loop over the fleet Session" to bit-identical
// costs, not approximately-equal ones.
// ---------------------------------------------------------------------------

struct FrozenStepView {
  std::size_t t = 0;
  sim::BatchView batch;
  std::vector<sim::Point> servers;  // the old copying layout
  double speed_limit = 0.0;
  const sim::ModelParams* params = nullptr;
};

struct FrozenStrategy {
  virtual ~FrozenStrategy() = default;
  virtual std::vector<sim::Point> decide(const FrozenStepView& view) = 0;
};

struct FrozenStatic final : FrozenStrategy {
  std::vector<sim::Point> decide(const FrozenStepView& view) override { return view.servers; }
};

struct FrozenAssignAndChase final : FrozenStrategy {
  std::vector<sim::Point> decide(const FrozenStepView& view) override {
    std::vector<sim::Point> next = view.servers;
    if (view.batch.empty()) return next;
    std::vector<std::vector<geo::Point>> assigned(view.servers.size());
    for (const sim::Point v : view.batch) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < view.servers.size(); ++i) {
        const double d = geo::distance(view.servers[i], v);
        if (d < best_d) {
          best_d = d;
          best = i;
        }
      }
      assigned[best].push_back(v);
    }
    for (std::size_t i = 0; i < next.size(); ++i) {
      if (assigned[i].empty()) continue;
      const geo::Point center = med::closest_center(assigned[i], view.servers[i]);
      const double dist = geo::distance(view.servers[i], center);
      const double step = std::min(
          alg::MoveToCenter::damped_step(assigned[i].size(), view.params->move_cost_weight, dist),
          view.speed_limit);
      next[i] = geo::move_toward(view.servers[i], center, step);
    }
    return next;
  }
};

struct FrozenResult {
  double total_cost = 0.0;
  double move_cost = 0.0;
  double service_cost = 0.0;
  std::vector<sim::Point> final_positions;
};

double frozen_nearest_service(const std::vector<sim::Point>& servers, sim::BatchView batch) {
  double total = 0.0;
  for (const sim::Point v : batch) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& s : servers) best = std::min(best, geo::distance(s, v));
    total += best;
  }
  return total;
}

FrozenResult frozen_run_multi(const sim::Instance& instance, std::vector<sim::Point> starts,
                              FrozenStrategy& strategy, double speed_factor = 1.0) {
  const sim::ModelParams& params = instance.params();
  const double limit = params.max_step * speed_factor;
  std::vector<sim::Point> servers = std::move(starts);
  FrozenResult result;
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    FrozenStepView view;
    view.t = t;
    view.batch = instance.step(t);
    view.servers = servers;
    view.speed_limit = limit;
    view.params = &params;
    std::vector<sim::Point> proposals = strategy.decide(view);
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const sim::Point next = geo::move_toward(servers[i], proposals[i], limit);
      result.move_cost += params.move_cost_weight * geo::distance(servers[i], next);
      servers[i] = next;
    }
    result.service_cost += frozen_nearest_service(servers, instance.step(t));
  }
  result.total_cost = result.move_cost + result.service_cost;
  result.final_positions = std::move(servers);
  return result;
}

sim::Instance hotspot_instance(std::uint64_t seed, std::size_t horizon = 96) {
  ext::MultiHotspotParams params;
  params.horizon = horizon;
  params.clusters = 3;
  stats::Rng rng(seed);
  return ext::make_multi_hotspot(params, rng);
}

// ---------------------------------------------------------------------------
// run_multi == frozen seed engine, bit for bit.
// ---------------------------------------------------------------------------

TEST(FleetRunMulti, ReproducesFrozenSeedEngineBitIdentically) {
  for (const std::uint64_t seed : {1u, 7u}) {
    const sim::Instance instance = hotspot_instance(seed);
    for (const int k : {1, 2, 4, 8}) {
      const auto starts = ext::spread_starts(instance, k, 10.0);

      FrozenAssignAndChase frozen_chase;
      const FrozenResult expected = frozen_run_multi(instance, starts, frozen_chase);
      ext::AssignAndChase chase;
      const ext::MultiRunResult actual = ext::run_multi(instance, starts, chase);
      EXPECT_EQ(actual.total_cost, expected.total_cost) << "chase k=" << k << " seed=" << seed;
      EXPECT_EQ(actual.move_cost, expected.move_cost) << "chase k=" << k;
      EXPECT_EQ(actual.service_cost, expected.service_cost) << "chase k=" << k;
      EXPECT_EQ(actual.final_positions, expected.final_positions) << "chase k=" << k;

      FrozenStatic frozen_static;
      const FrozenResult still_expected = frozen_run_multi(instance, starts, frozen_static);
      ext::StaticServers still;
      const ext::MultiRunResult still_actual = ext::run_multi(instance, starts, still);
      EXPECT_EQ(still_actual.total_cost, still_expected.total_cost) << "static k=" << k;
      EXPECT_EQ(still_actual.service_cost, still_expected.service_cost) << "static k=" << k;
    }
  }
}

TEST(FleetRunMulti, SpeedAugmentationMatchesFrozenEngine) {
  const sim::Instance instance = hotspot_instance(3, 64);
  const auto starts = ext::spread_starts(instance, 4, 6.0);
  FrozenAssignAndChase frozen;
  ext::AssignAndChase chase;
  const FrozenResult expected = frozen_run_multi(instance, starts, frozen, 2.0);
  const ext::MultiRunResult actual = ext::run_multi(instance, starts, chase, 2.0);
  EXPECT_EQ(actual.total_cost, expected.total_cost);
  EXPECT_EQ(actual.final_positions, expected.final_positions);
}

// ---------------------------------------------------------------------------
// The k = 1 adapter: fleet core == single-server engine, bit for bit.
// ---------------------------------------------------------------------------

TEST(FleetSession, AdapterReproducesRunOnTraceCorpusBitIdentically) {
  for (const scenario::Scenario& starter : scenario::generator_starters()) {
    const trace::TraceFile file = scenario::starter_trace(starter.name, 11, 0.05);
    const sim::Instance& instance = file.instance;
    for (const std::string& name : alg::algorithm_names()) {
      sim::RunOptions options;
      options.speed_factor = 1.5;
      const sim::AlgorithmPtr reference_algo = alg::make_algorithm(name, 42);
      const sim::RunResult reference = sim::run(instance, *reference_algo, options);

      // Explicit fleet-of-one construction through the adapter.
      options.record_positions = false;
      sim::FleetAlgorithmPtr fleet_algo = alg::make_fleet_algorithm(name, 42);
      sim::Session session({instance.start()}, instance.params(), *fleet_algo, options);
      for (std::size_t t = 0; t < instance.horizon(); ++t) session.push(instance.step(t));

      EXPECT_EQ(session.total_cost(), reference.total_cost) << starter.name << " " << name;
      EXPECT_EQ(session.move_cost(), reference.move_cost) << starter.name << " " << name;
      EXPECT_EQ(session.service_cost(), reference.service_cost) << starter.name << " " << name;
      EXPECT_EQ(session.position(), reference.final_position) << starter.name << " " << name;
    }
  }
}

TEST(FleetSession, AdapterKeepsRegistryNameAndRejectsFleets) {
  for (const std::string& name : alg::algorithm_names()) {
    const sim::FleetAlgorithmPtr fleet_algo = alg::make_fleet_algorithm(name, 7);
    EXPECT_EQ(fleet_algo->name(), name);
  }
  // A single-server strategy cannot drive k > 1 servers.
  sim::FleetAlgorithmPtr mtc = alg::make_fleet_algorithm("MtC");
  sim::ModelParams params;
  sim::RunOptions options;
  options.record_positions = false;
  EXPECT_THROW(sim::Session({Point{0.0}, Point{1.0}}, params, *mtc, options), ContractViolation);
}

// ---------------------------------------------------------------------------
// Fleet engine semantics.
// ---------------------------------------------------------------------------

sim::Instance two_cluster_instance(std::size_t horizon = 30) {
  std::vector<sim::RequestBatch> steps(horizon);
  for (auto& s : steps) s.requests = {Point{-10.0, 0.0}, Point{10.0, 0.0}};
  sim::ModelParams params;
  params.move_cost_weight = 4.0;
  return sim::Instance(Point{0.0, 0.0}, params, std::move(steps));
}

TEST(FleetSession, NearestServerServiceAndPerServerMoveSplit) {
  const sim::Instance instance = two_cluster_instance(8);
  ext::AssignAndChase chase;
  sim::RunOptions options;
  options.record_positions = false;
  sim::Session session(ext::spread_starts(instance, 2, 2.0), instance.params(), chase, options);
  double move = 0.0, service = 0.0;
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    const sim::StepOutcome outcome = session.push(instance.step(t));
    EXPECT_EQ(outcome.t, t);
    move += outcome.cost.move;
    service += outcome.cost.service;
  }
  EXPECT_EQ(session.fleet_size(), 2u);
  EXPECT_EQ(session.steps(), instance.horizon());
  // Step-outcome sums agree with the running totals (up to FP association).
  EXPECT_NEAR(session.move_cost(), move, 1e-9 * (1.0 + move));
  EXPECT_DOUBLE_EQ(session.service_cost(), service);
  // Symmetric demand: both servers move, and the split sums to the total.
  EXPECT_GT(session.server_move_cost(0), 0.0);
  EXPECT_GT(session.server_move_cost(1), 0.0);
  EXPECT_NEAR(session.server_move_cost(0) + session.server_move_cost(1), session.move_cost(),
              1e-9 * (1.0 + session.move_cost()));
  // Two servers parked near the clusters serve far cheaper than one at the
  // start ever could: per-step service is below the single-server optimum 20.
  EXPECT_LT(session.service_cost(), 20.0 * static_cast<double>(instance.horizon()));
}

/// Teleports every server; used to probe limit enforcement.
class FleetRunaway final : public sim::FleetAlgorithm {
 public:
  void decide(const sim::FleetStepView& view, std::span<sim::Point> proposals) override {
    for (std::size_t i = 0; i < proposals.size(); ++i) {
      proposals[i] = view.servers[i];
      proposals[i][0] += 100.0;
    }
  }
  std::string name() const override { return "FleetRunaway"; }
};

TEST(FleetSession, ThrowPolicyRejectsBeforeMutatingAnyServer) {
  const sim::Instance instance = two_cluster_instance(2);
  FleetRunaway runaway;
  sim::RunOptions options;
  options.record_positions = false;
  const auto starts = ext::spread_starts(instance, 3, 1.0);
  sim::Session session(starts, instance.params(), runaway, options);
  EXPECT_THROW(session.push(instance.step(0)), ContractViolation);
  // The strong guarantee: nothing moved, nothing was charged.
  EXPECT_EQ(session.fleet(), starts);
  EXPECT_EQ(session.total_cost(), 0.0);
  EXPECT_EQ(session.steps(), 0u);
}

TEST(FleetSession, ClampPolicyClampsEveryServerAndFlags) {
  const sim::Instance instance = two_cluster_instance(2);
  FleetRunaway runaway;
  sim::RunOptions options;
  options.record_positions = false;
  options.policy = sim::SpeedLimitPolicy::kClamp;
  const auto starts = ext::spread_starts(instance, 2, 1.0);
  sim::Session session(starts, instance.params(), runaway, options);
  const sim::StepOutcome outcome = session.push(instance.step(0));
  EXPECT_TRUE(outcome.clamped);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(geo::distance(starts[i], session.position(i)), 1.0, 1e-12);  // m = 1
  EXPECT_NEAR(outcome.cost.move, 2 * 4.0 * 1.0, 1e-12);  // two servers, D = 4
}

TEST(FleetSession, ServeThenMoveChargesServiceFromPreMovePositions) {
  // One step, one request at x = 10, one-server-fleet... use k = 2 to hit
  // the fleet path: servers at 0 and 4, request at 10.
  std::vector<sim::RequestBatch> steps(1);
  steps[0].requests = {Point{10.0}};
  sim::ModelParams params;
  params.move_cost_weight = 1.0;
  params.order = sim::ServiceOrder::kServeThenMove;
  const sim::Instance instance(Point{0.0}, params, std::move(steps));

  ext::AssignAndChase chase;
  sim::RunOptions options;
  options.record_positions = false;
  sim::Session session({Point{0.0}, Point{4.0}}, params, chase, options);
  const sim::StepOutcome outcome = session.push(instance.step(0));
  // Service charged before the move: nearest pre-move server is at 4 → 6.
  EXPECT_DOUBLE_EQ(outcome.cost.service, 6.0);
}

TEST(FleetSession, FleetSessionsKeepNoHistory) {
  sim::ModelParams params;
  ext::StaticServers still;
  sim::RunOptions history_on;  // record_positions defaults to true
  EXPECT_THROW(sim::Session({Point{0.0}, Point{1.0}}, params, still, history_on),
               ContractViolation);
  sim::RunOptions off;
  off.record_positions = false;
  sim::Session session({Point{0.0}, Point{1.0}}, params, still, off);
  EXPECT_THROW((void)session.result(), ContractViolation);  // RunResult is k = 1 only
}

// ---------------------------------------------------------------------------
// k-server tenants in the multiplexer.
// ---------------------------------------------------------------------------

TEST(FleetMultiplexer, FleetSpecDrainsWithPerServerStats) {
  const auto workload = std::make_shared<const sim::Instance>(hotspot_instance(5, 48));
  par::ThreadPool pool(3);
  core::SessionMultiplexer mux(pool);

  core::SessionSpec fleet_spec;
  fleet_spec.workload = workload;
  fleet_spec.algorithm = "AssignAndChase";
  fleet_spec.fleet_size = 4;
  fleet_spec.starts = ext::spread_starts(*workload, 4, 10.0);
  fleet_spec.tenant = "fleet-4";
  mux.add(fleet_spec);

  core::SessionSpec single_spec;
  single_spec.workload = workload;
  single_spec.algorithm = "MtC";
  single_spec.tenant = "solo";
  mux.add(single_spec);

  mux.drain();
  EXPECT_EQ(mux.live(), 0u);

  const core::SessionStats fleet_stats = mux.stats(0);
  EXPECT_EQ(fleet_stats.fleet_size, 4u);
  ASSERT_EQ(fleet_stats.positions.size(), 4u);
  ASSERT_EQ(fleet_stats.per_server_move_cost.size(), 4u);
  EXPECT_EQ(fleet_stats.position, fleet_stats.positions[0]);

  // The multiplexed fleet session is the same engine run_multi drives:
  // identical costs and final positions, bit for bit (run_multi clamps, so
  // mirror its policy in the spec).
  core::SessionSpec clamped = fleet_spec;
  clamped.policy = sim::SpeedLimitPolicy::kClamp;
  core::SessionMultiplexer clamped_mux(pool);
  clamped_mux.add(clamped);
  clamped_mux.drain();
  ext::AssignAndChase chase;
  const ext::MultiRunResult direct = ext::run_multi(*workload, fleet_spec.starts, chase);
  const core::SessionStats clamped_stats = clamped_mux.stats(0);
  EXPECT_EQ(clamped_stats.total_cost, direct.total_cost);
  EXPECT_EQ(clamped_stats.move_cost, direct.move_cost);
  EXPECT_EQ(clamped_stats.service_cost, direct.service_cost);
  EXPECT_EQ(clamped_stats.positions, direct.final_positions);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(clamped_stats.per_server_move_cost[i], direct.per_server_move_cost[i]) << i;

  const core::SessionStats solo = mux.stats(1);
  EXPECT_EQ(solo.fleet_size, 1u);
  ASSERT_EQ(solo.positions.size(), 1u);
}

TEST(FleetMultiplexer, MixedFleetsDeterministicForAnyThreadCount) {
  std::vector<std::vector<core::SessionStats>> snapshots;
  for (const unsigned threads : {1u, 4u}) {
    par::ThreadPool pool(threads);
    core::SessionMultiplexer mux(pool, /*grain=*/3);
    for (std::uint64_t s = 0; s < 60; ++s) {
      const auto workload = std::make_shared<const sim::Instance>(
          hotspot_instance(s % 4, 16 + 4 * (s % 5)));
      core::SessionSpec spec;
      spec.workload = workload;
      const std::size_t k = 1 + s % 4;
      spec.fleet_size = k;
      spec.algorithm = k == 1 ? "MtC" : "AssignAndChase";
      spec.starts = ext::spread_starts(*workload, static_cast<int>(k), 5.0);
      spec.tenant = std::string("t") + std::to_string(s);
      mux.add(std::move(spec));
    }
    mux.drain();
    snapshots.push_back(mux.snapshot());
  }
  ASSERT_EQ(snapshots[0].size(), snapshots[1].size());
  for (std::size_t s = 0; s < snapshots[0].size(); ++s) {
    EXPECT_EQ(snapshots[1][s].total_cost, snapshots[0][s].total_cost) << s;
    EXPECT_EQ(snapshots[1][s].positions, snapshots[0][s].positions) << s;
  }
}

TEST(FleetMultiplexer, SingleServerNameWithFleetSizeRejected) {
  const auto workload = std::make_shared<const sim::Instance>(hotspot_instance(1, 8));
  par::ThreadPool pool(1);
  core::SessionMultiplexer mux(pool);
  core::SessionSpec bad;
  bad.workload = workload;
  bad.algorithm = "MtC";
  bad.fleet_size = 3;
  EXPECT_THROW(mux.add(std::move(bad)), ContractViolation);
  EXPECT_EQ(mux.size(), 0u);
}

}  // namespace
}  // namespace mobsrv
