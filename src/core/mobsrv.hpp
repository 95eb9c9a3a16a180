/// \file mobsrv.hpp
/// Umbrella header: the whole public API of the Mobile Server Problem
/// library. Examples include just this.
#pragma once

#include "adversary/lower_bounds.hpp"     // IWYU pragma: export
#include "adversary/mobility.hpp"         // IWYU pragma: export
#include "adversary/moving_client_lb.hpp" // IWYU pragma: export
#include "adversary/workloads.hpp"        // IWYU pragma: export
#include "algorithms/baselines.hpp"       // IWYU pragma: export
#include "algorithms/move_to_center.hpp"  // IWYU pragma: export
#include "algorithms/registry.hpp"        // IWYU pragma: export
#include "core/audit.hpp"                 // IWYU pragma: export
#include "core/ratio.hpp"                 // IWYU pragma: export
#include "core/session_multiplexer.hpp"   // IWYU pragma: export
#include "core/shootout.hpp"              // IWYU pragma: export
#include "ext/multi_server.hpp"           // IWYU pragma: export
#include "geometry/aabb.hpp"              // IWYU pragma: export
#include "geometry/point.hpp"             // IWYU pragma: export
#include "geometry/segment.hpp"           // IWYU pragma: export
#include "io/args.hpp"                    // IWYU pragma: export
#include "io/json.hpp"                    // IWYU pragma: export
#include "io/table.hpp"                   // IWYU pragma: export
#include "median/geometric_median.hpp"    // IWYU pragma: export
#include "obs/journal.hpp"                // IWYU pragma: export
#include "obs/metrics.hpp"                // IWYU pragma: export
#include "opt/brute_force.hpp"            // IWYU pragma: export
#include "opt/convex_descent.hpp"         // IWYU pragma: export
#include "opt/coordinate_descent.hpp"     // IWYU pragma: export
#include "opt/grid_dp.hpp"                // IWYU pragma: export
#include "parallel/parallel_for.hpp"      // IWYU pragma: export
#include "scenario/scenario.hpp"          // IWYU pragma: export
#include "scenario/tournament.hpp"        // IWYU pragma: export
#include "sim/engine.hpp"                 // IWYU pragma: export
#include "sim/fleet.hpp"                  // IWYU pragma: export
#include "sim/moving_client.hpp"          // IWYU pragma: export
#include "sim/session.hpp"                // IWYU pragma: export
#include "stats/bootstrap.hpp"            // IWYU pragma: export
#include "stats/regression.hpp"           // IWYU pragma: export
#include "trace/batch_runner.hpp"         // IWYU pragma: export
#include "trace/checkpoint.hpp"           // IWYU pragma: export
#include "trace/codec.hpp"                // IWYU pragma: export
#include "trace/importers.hpp"            // IWYU pragma: export
#include "trace/recorder.hpp"             // IWYU pragma: export
#include "trace/replay.hpp"               // IWYU pragma: export
#include "trace/trace.hpp"                // IWYU pragma: export
