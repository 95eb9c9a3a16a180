#include "sim/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/kernels.hpp"

namespace mobsrv::sim {

namespace {

/// Raw-row service cost, dimension-specialized. Exactly the operation
/// sequence of service_cost(const Point&, BatchView) — componentwise
/// difference, squares summed in axis order, then sqrt — so the two paths
/// charge bit-identical costs.
template <int Dim>
double service_cost_k(const double* server, int dim, BatchView batch) {
  if (batch.empty()) return 0.0;
  MOBSRV_DCHECK(dim == batch.dim());
  const double* v = batch.data();
  const std::size_t stride = batch.stride();
  double total = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i, v += stride) {
    double s2 = 0.0;
    for (int k = 0; k < geo::kern::bound<Dim>(dim); ++k) {
      const double d = server[k] - v[k];
      s2 += d * d;
    }
    total += std::sqrt(s2);
  }
  return total;
}

}  // namespace

double service_cost(const Point& server, BatchView batch) {
  if (batch.empty()) return 0.0;
  MOBSRV_DCHECK(server.dim() == batch.dim());
  const int dim = batch.dim();
  const double* s = server.data();
  const double* v = batch.data();
  const std::size_t stride = batch.stride();
  double total = 0.0;
  // Same operation sequence as geo::distance(server, v_i) — componentwise
  // difference, squares summed in axis order, then sqrt — so costs are
  // bit-identical to the AoS path and to recorded traces.
  for (std::size_t i = 0; i < batch.size(); ++i, v += stride) {
    double s2 = 0.0;
    for (int k = 0; k < dim; ++k) {
      const double d = s[k] - v[k];
      s2 += d * d;
    }
    total += std::sqrt(s2);
  }
  return total;
}

double nearest_service_cost(std::span<const Point> servers, BatchView batch) {
  MOBSRV_CHECK_MSG(!servers.empty(), "need at least one server");
  if (batch.empty()) return 0.0;
  MOBSRV_DCHECK(servers[0].dim() == batch.dim());
  const int dim = batch.dim();
  const double* v = batch.data();
  const std::size_t stride = batch.stride();
  double total = 0.0;
  // Same per-distance operation sequence as service_cost / geo::distance,
  // so a one-server fleet reproduces single-server service bit-identically.
  for (std::size_t i = 0; i < batch.size(); ++i, v += stride) {
    double best = std::numeric_limits<double>::infinity();
    for (const Point& server : servers) {
      const double* s = server.data();
      double s2 = 0.0;
      for (int k = 0; k < dim; ++k) {
        const double d = s[k] - v[k];
        s2 += d * d;
      }
      best = std::min(best, std::sqrt(s2));
    }
    total += best;
  }
  return total;
}

StepCost step_cost(const ModelParams& params, const Point& before, const Point& after,
                   BatchView batch) {
  StepCost cost;
  cost.move = params.move_cost_weight * geo::distance(before, after);
  const Point& serve_from = params.order == ServiceOrder::kMoveThenServe ? after : before;
  cost.service = service_cost(serve_from, batch);
  return cost;
}

double trajectory_cost(const Instance& instance, ConstTrajectoryView positions) {
  MOBSRV_CHECK_MSG(positions.size() == instance.horizon() + 1,
                   "trajectory must have horizon()+1 positions");
  const int dim = instance.dim();
  MOBSRV_CHECK_MSG(positions.dim() == dim, "trajectory dimension mismatch");
  const ModelParams& params = instance.params();
  const bool move_then_serve = params.order == ServiceOrder::kMoveThenServe;
  return geo::kern::dispatch_dim(dim, [&](auto d) {
    constexpr int Dim = decltype(d)::value;
    double total = 0.0;
    for (std::size_t t = 0; t < instance.horizon(); ++t) {
      const double* before = positions.row(t);
      const double* after = positions.row(t + 1);
      const double move = params.move_cost_weight * geo::kern::distance<Dim>(before, after, dim);
      const double service =
          service_cost_k<Dim>(move_then_serve ? after : before, dim, instance.step(t));
      total += move + service;
    }
    return total;
  });
}

double trajectory_cost(const Instance& instance, std::span<const Point> positions) {
  MOBSRV_CHECK_MSG(positions.size() == instance.horizon() + 1,
                   "trajectory must have horizon()+1 positions");
  double total = 0.0;
  for (std::size_t t = 0; t < instance.horizon(); ++t)
    total += step_cost(instance.params(), positions[t], positions[t + 1], instance.step(t)).total();
  return total;
}

long first_speed_violation(const Instance& instance, ConstTrajectoryView positions,
                           double speed_factor, double tolerance) {
  if (positions.size() != instance.horizon() + 1) return 0;
  const int dim = instance.dim();
  if (positions.dim() != dim) return 0;
  if (!(positions[0] == instance.start())) return 0;
  const double limit = instance.params().max_step * speed_factor;
  return geo::kern::dispatch_dim(dim, [&](auto d) -> long {
    constexpr int Dim = decltype(d)::value;
    for (std::size_t t = 0; t + 1 < positions.size(); ++t) {
      if (geo::kern::distance<Dim>(positions.row(t), positions.row(t + 1), dim) >
          limit * (1.0 + tolerance))
        return static_cast<long>(t);
    }
    return -1;
  });
}

long first_speed_violation(const Instance& instance, std::span<const Point> positions,
                           double speed_factor, double tolerance) {
  if (positions.size() != instance.horizon() + 1) return 0;
  if (!(positions[0] == instance.start())) return 0;
  const double limit = instance.params().max_step * speed_factor;
  for (std::size_t t = 0; t + 1 < positions.size(); ++t) {
    if (geo::distance(positions[t], positions[t + 1]) > limit * (1.0 + tolerance))
      return static_cast<long>(t);
  }
  return -1;
}

}  // namespace mobsrv::sim
