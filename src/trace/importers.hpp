/// \file importers.hpp
/// Importers for external demand and waypoint traces: CSV-style tables
/// turned into TraceFiles, for workloads no generator in src/adversary/
/// produces. The scenario layer's "demand" and "waypoints" kinds read their
/// data files through these.
#pragma once

#include <filesystem>

#include "trace/trace.hpp"

namespace mobsrv::trace {

/// Demand traces: text lines "t x1 [x2 ...]" (space- or comma-separated,
/// '#' comments), one request per line, step indices non-decreasing. Steps
/// without lines become empty batches; the dimension is inferred from the
/// first line. This admits arbitrary request sequences — bursty, vanishing,
/// teleporting demand — that no generator in src/adversary/ produces.
struct DemandImportOptions {
  double move_cost_weight = 1.0;  ///< D
  double max_step = 1.0;          ///< m
  sim::ServiceOrder order = sim::ServiceOrder::kMoveThenServe;
  /// Server start; empty → the first request's position (so imported traces
  /// begin "on demand" rather than at an arbitrary origin).
  sim::Point start;
};
[[nodiscard]] TraceFile import_demand(const std::filesystem::path& path,
                                      const DemandImportOptions& options = {});

/// Waypoint traces for the Moving Client variant: lines
/// "agent t x1 [x2 ...]" giving per-agent waypoints. Each agent's per-round
/// position walks from the common start toward the linear interpolation of
/// its waypoints, clamped to the agent speed limit — so every imported
/// instance is feasible by construction even when the raw trace is not.
struct WaypointImportOptions {
  double server_speed = 1.0;      ///< m_s
  double agent_speed = 1.0;       ///< m_a
  double move_cost_weight = 1.0;  ///< D
};
[[nodiscard]] TraceFile import_waypoints(const std::filesystem::path& path,
                                         const WaypointImportOptions& options = {});

}  // namespace mobsrv::trace
