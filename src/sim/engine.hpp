/// \file engine.hpp
/// The simulation engine: runs an online algorithm against an instance.
#pragma once

#include <vector>

#include "sim/cost.hpp"
#include "sim/online_algorithm.hpp"

namespace mobsrv::obs {
class Histogram;
}  // namespace mobsrv::obs

namespace mobsrv::sim {

/// Per-step record for analysis and visualisation.
struct TraceStep {
  std::size_t t = 0;
  Point before;      ///< P_t
  Point after;       ///< P_{t+1}
  StepCost cost;     ///< this step's cost split
};

/// Options controlling a run.
struct RunOptions {
  /// Speed augmentation factor (1+δ); the online algorithm may move
  /// speed_factor · m per round. 1.0 = no augmentation.
  double speed_factor = 1.0;
  SpeedLimitPolicy policy = SpeedLimitPolicy::kThrow;
  bool record_trace = false;
  /// Keep the P_0..P_T history. On by default (cheap, and audits need it);
  /// long-lived streaming sessions (the multiplexer) turn it off so memory
  /// stays O(1) per session.
  bool record_positions = true;
  /// Optional per-push wall-time sink (ns). When set, every push() records
  /// its duration into this histogram (not owned; must outlive the
  /// session). Observational only — results are bit-identical either way
  /// (DESIGN.md §7). Default off: the engine/step_latency perf row carries
  /// the instrumented path so the plain path stays clock-free.
  obs::Histogram* step_latency = nullptr;

  void validate() const { MOBSRV_CHECK_MSG(speed_factor >= 1.0, "speed factor must be >= 1"); }
};

/// Outcome of a run.
struct RunResult {
  double total_cost = 0.0;
  double move_cost = 0.0;
  double service_cost = 0.0;
  Point final_position;
  std::vector<TraceStep> trace;  ///< filled iff record_trace
  /// Server positions P_0..P_T (always filled; cheap and needed by audits).
  std::vector<Point> positions;
};

/// Runs \p algorithm over \p instance from its start position: a thin loop
/// over sim::Session (see session.hpp) that reveals batches one step at a
/// time, enforces the movement limit under the given policy, and accounts
/// costs per the instance's service order. Costs are bit-identical to
/// streaming the same batches through a Session by hand.
[[nodiscard]] RunResult run(const Instance& instance, OnlineAlgorithm& algorithm,
                            const RunOptions& options = {});

}  // namespace mobsrv::sim
