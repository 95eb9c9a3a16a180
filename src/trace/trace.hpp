/// \file trace.hpp
/// The on-disk trace data model: a serializable workload plus any number of
/// recorded engine runs.
///
/// A trace file is the unit of exchange for the whole subsystem: corpus
/// snapshots, `mobsrv_bench --record-dir` output, imported external demand
/// traces and batch-replay inputs are all TraceFiles. Two interchangeable
/// codecs exist (JSONL and a compact binary framing — see codec.hpp); both
/// preserve every double bit-exactly, so replaying a stored instance with
/// the recorded algorithm reproduces the recorded costs bit-identically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/moving_client.hpp"

namespace mobsrv::trace {

/// Format version written by this build; readers accept only this version.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Provenance of a trace file.
struct TraceMeta {
  std::string name;    ///< scenario name ("theorem1", "import:taxi.csv", ...)
  std::string source;  ///< producing tool/generator ("scenario", "mobsrv_bench", "import")
  std::uint64_t seed = 0;  ///< generator seed (0 when not applicable)
};

/// The adversary's own feasible solution, when the generator provides one
/// (lower-bound constructions). Its cost upper-bounds OPT, so replays can
/// report conservative competitive ratios without re-running a solver.
/// Positions are flat SoA storage (sim::TrajectoryStore) like every other
/// solution path; both codecs serialise them identically to the original
/// Point-vector representation.
struct AdversaryInfo {
  double cost = 0.0;
  sim::TrajectoryStore positions;  ///< P_0..P_T, feasible at speed m
};

/// One recorded engine run: enough to reconstruct the algorithm (registry
/// name + seed), re-run it under identical conditions, and verify the
/// outcome bit-identically.
struct RecordedRun {
  std::string algorithm;        ///< alg::make_algorithm name
  std::uint64_t algo_seed = 0;  ///< seed handed to make_algorithm
  double speed_factor = 1.0;    ///< (1+δ) used for the run
  sim::SpeedLimitPolicy policy = sim::SpeedLimitPolicy::kThrow;
  double total_cost = 0.0;
  double move_cost = 0.0;
  double service_cost = 0.0;
  std::vector<sim::Point> positions;       ///< P_0..P_T
  std::vector<sim::StepCost> step_costs;   ///< optional per-step split (may be empty)
};

/// A complete trace file: workload (+ optional moving-client provenance and
/// adversary solution) and recorded runs.
struct TraceFile {
  TraceFile(TraceMeta meta_in, sim::Instance instance_in)
      : meta(std::move(meta_in)), instance(std::move(instance_in)) {}

  TraceMeta meta;
  sim::Instance instance;
  /// Present when the workload originated as a Moving Client instance
  /// (Section 5): preserves agent speeds and paths the flat request
  /// sequence cannot express.
  std::optional<sim::MovingClientInstance> moving_client;
  std::optional<AdversaryInfo> adversary;
  std::vector<RecordedRun> runs;
};

/// Runs `alg::make_algorithm(algorithm, algo_seed)` on \p instance through
/// the engine and captures the outcome as a RecordedRun (including the
/// per-step cost split).
[[nodiscard]] RecordedRun record_run(const sim::Instance& instance, const std::string& algorithm,
                                     std::uint64_t algo_seed = 0, double speed_factor = 1.0,
                                     sim::SpeedLimitPolicy policy = sim::SpeedLimitPolicy::kThrow);

/// Converts an already-computed engine result into a RecordedRun.
[[nodiscard]] RecordedRun to_recorded_run(std::string algorithm, std::uint64_t algo_seed,
                                          double speed_factor, sim::SpeedLimitPolicy policy,
                                          const sim::RunResult& result);

/// Exact (bitwise on doubles) equality — the codec round-trip contract.
[[nodiscard]] bool identical(const sim::Instance& a, const sim::Instance& b);
[[nodiscard]] bool identical(const RecordedRun& a, const RecordedRun& b);
[[nodiscard]] bool identical(const TraceFile& a, const TraceFile& b);

}  // namespace mobsrv::trace
