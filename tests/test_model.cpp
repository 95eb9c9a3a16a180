// Unit tests for sim/model.hpp and sim/cost.hpp: instance validation,
// request bounds, and — critically — the two service orders' cost
// accounting, which every theorem's experiment depends on.
#include <gtest/gtest.h>

#include "sim/cost.hpp"
#include "sim/model.hpp"

namespace mobsrv::sim {
namespace {

ModelParams params(double d_weight, double m, ServiceOrder order = ServiceOrder::kMoveThenServe) {
  ModelParams p;
  p.move_cost_weight = d_weight;
  p.max_step = m;
  p.order = order;
  return p;
}

Instance tiny_instance(ServiceOrder order = ServiceOrder::kMoveThenServe) {
  std::vector<RequestBatch> steps(2);
  steps[0].requests = {Point{1.0}, Point{2.0}};
  steps[1].requests = {Point{-1.0}};
  return Instance(Point{0.0}, params(2.0, 1.0, order), steps);
}

TEST(ModelParams, ValidationRejectsPaperViolations) {
  EXPECT_THROW(params(0.5, 1.0).validate(), ContractViolation);  // D < 1
  EXPECT_THROW(params(1.0, 0.0).validate(), ContractViolation);  // m = 0
  EXPECT_THROW(params(1.0, -1.0).validate(), ContractViolation);
  EXPECT_NO_THROW(params(1.0, 0.25).validate());
}

TEST(Instance, BasicAccessors) {
  const Instance inst = tiny_instance();
  EXPECT_EQ(inst.dim(), 1);
  EXPECT_EQ(inst.horizon(), 2u);
  EXPECT_EQ(inst.step(0).size(), 2u);
  EXPECT_EQ(inst.step(1).size(), 1u);
  EXPECT_EQ(inst.total_requests(), 3u);
  const auto [rmin, rmax] = inst.request_bounds();
  EXPECT_EQ(rmin, 1u);
  EXPECT_EQ(rmax, 2u);
}

TEST(Instance, EmptySequenceAllowed) {
  const Instance inst(Point{0.0}, params(1.0, 1.0), std::vector<RequestBatch>{});
  EXPECT_EQ(inst.horizon(), 0u);
  const auto [rmin, rmax] = inst.request_bounds();
  EXPECT_EQ(rmin, 0u);
  EXPECT_EQ(rmax, 0u);
}

TEST(Instance, EmptyBatchesAllowed) {
  std::vector<RequestBatch> steps(3);
  steps[1].requests = {Point{1.0}};
  const Instance inst(Point{0.0}, params(1.0, 1.0), steps);
  EXPECT_EQ(inst.request_bounds().first, 0u);
}

TEST(Instance, RejectsDimensionMismatch) {
  std::vector<RequestBatch> steps(1);
  steps[0].requests = {Point{1.0, 2.0}};
  EXPECT_THROW(Instance(Point{0.0}, params(1.0, 1.0), steps), ContractViolation);
}

TEST(Instance, RejectsEmptyStart) {
  EXPECT_THROW(Instance(Point{}, params(1.0, 1.0), std::vector<RequestBatch>{}),
               ContractViolation);
}

TEST(Instance, WithOrderFlipsOnlyTheOrder) {
  const Instance inst = tiny_instance(ServiceOrder::kMoveThenServe);
  const Instance flipped = inst.with_order(ServiceOrder::kServeThenMove);
  EXPECT_EQ(flipped.params().order, ServiceOrder::kServeThenMove);
  EXPECT_EQ(flipped.params().move_cost_weight, inst.params().move_cost_weight);
  EXPECT_EQ(flipped.horizon(), inst.horizon());
}

TEST(ServiceOrder, WireNamesRoundTrip) {
  // One spelling per value, shared by trace files, scenario files and
  // serve frames.
  EXPECT_STREQ(order_name(ServiceOrder::kMoveThenServe), "move-then-serve");
  EXPECT_STREQ(order_name(ServiceOrder::kServeThenMove), "serve-then-move");
  EXPECT_STREQ(policy_name(SpeedLimitPolicy::kThrow), "throw");
  EXPECT_STREQ(policy_name(SpeedLimitPolicy::kClamp), "clamp");
  for (const ServiceOrder order : {ServiceOrder::kMoveThenServe, ServiceOrder::kServeThenMove})
    EXPECT_EQ(parse_order(order_name(order)), order);
  for (const SpeedLimitPolicy policy : {SpeedLimitPolicy::kThrow, SpeedLimitPolicy::kClamp})
    EXPECT_EQ(parse_policy(policy_name(policy)), policy);
  EXPECT_FALSE(parse_order("answer-first").has_value());
  EXPECT_FALSE(parse_order("").has_value());
  EXPECT_FALSE(parse_policy("Clamp").has_value());
}

TEST(ServiceCost, SumOfDistances) {
  RequestBatch batch;
  batch.requests = {Point{3.0, 0.0}, Point{0.0, 4.0}};
  EXPECT_DOUBLE_EQ(service_cost(Point{0.0, 0.0}, batch), 7.0);
  EXPECT_DOUBLE_EQ(service_cost(Point{0.0, 0.0}, RequestBatch{}), 0.0);
}

TEST(StepCost, MoveThenServeChargesNewPosition) {
  RequestBatch batch;
  batch.requests = {Point{2.0}};
  const StepCost c =
      step_cost(params(3.0, 1.0, ServiceOrder::kMoveThenServe), Point{0.0}, Point{1.0}, batch);
  EXPECT_DOUBLE_EQ(c.move, 3.0);     // D·d(0,1)
  EXPECT_DOUBLE_EQ(c.service, 1.0);  // d(1,2) — from the NEW position
  EXPECT_DOUBLE_EQ(c.total(), 4.0);
}

TEST(StepCost, AnswerFirstChargesOldPosition) {
  RequestBatch batch;
  batch.requests = {Point{2.0}};
  const StepCost c =
      step_cost(params(3.0, 1.0, ServiceOrder::kServeThenMove), Point{0.0}, Point{1.0}, batch);
  EXPECT_DOUBLE_EQ(c.move, 3.0);
  EXPECT_DOUBLE_EQ(c.service, 2.0);  // d(0,2) — from the OLD position
  EXPECT_DOUBLE_EQ(c.total(), 5.0);
}

TEST(TrajectoryCost, MatchesHandComputation) {
  const Instance inst = tiny_instance();  // D=2, requests {1,2} then {-1}
  // Trajectory 0 -> 1 -> 0.
  const std::vector<Point> traj{Point{0.0}, Point{1.0}, Point{0.0}};
  // Step 0: move 2·1, serve |1-1|+|1-2| = 1 → 3. Step 1: move 2·1, serve
  // |0-(-1)| = 1 → 3.
  EXPECT_DOUBLE_EQ(trajectory_cost(inst, traj), 6.0);
}

TEST(TrajectoryCost, AnswerFirstDiffersOnSameTrajectory) {
  const Instance inst = tiny_instance(ServiceOrder::kServeThenMove);
  const std::vector<Point> traj{Point{0.0}, Point{1.0}, Point{0.0}};
  // Step 0: serve from 0: 1+2 = 3, move 2 → 5. Step 1: serve from 1: 2,
  // move 2 → 4.
  EXPECT_DOUBLE_EQ(trajectory_cost(inst, traj), 9.0);
}

TEST(TrajectoryCost, WrongLengthThrows) {
  const Instance inst = tiny_instance();
  const std::vector<Point> too_short{Point{0.0}, Point{1.0}};
  EXPECT_THROW((void)trajectory_cost(inst, too_short), ContractViolation);
}

TEST(FirstSpeedViolation, DetectsViolatingStep) {
  const Instance inst = tiny_instance();  // m = 1
  const std::vector<Point> ok{Point{0.0}, Point{1.0}, Point{0.5}};
  EXPECT_EQ(first_speed_violation(inst, ok), -1);
  const std::vector<Point> bad{Point{0.0}, Point{0.5}, Point{2.0}};
  EXPECT_EQ(first_speed_violation(inst, bad), 1);
}

TEST(FirstSpeedViolation, AugmentedFactorAllowsMore) {
  const Instance inst = tiny_instance();
  const std::vector<Point> traj{Point{0.0}, Point{1.5}, Point{0.0}};
  EXPECT_EQ(first_speed_violation(inst, traj), 0);
  EXPECT_EQ(first_speed_violation(inst, traj, 1.5), -1);
}

TEST(FirstSpeedViolation, WrongStartOrLengthFlagged) {
  const Instance inst = tiny_instance();
  const std::vector<Point> wrong_start{Point{1.0}, Point{1.0}, Point{1.0}};
  EXPECT_EQ(first_speed_violation(inst, wrong_start), 0);
  const std::vector<Point> wrong_len{Point{0.0}};
  EXPECT_EQ(first_speed_violation(inst, wrong_len), 0);
}

}  // namespace
}  // namespace mobsrv::sim
