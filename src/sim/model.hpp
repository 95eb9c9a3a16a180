/// \file model.hpp
/// The Mobile Server Problem model: parameters, request batches, instances.
///
/// Faithful to Section 2 of the paper: a single server in R^d, per-step
/// movement limit m, movement cost weight D >= 1, and per-step request
/// batches served at the sum of distances from the server. Two service
/// orders exist:
///   * kMoveThenServe (the paper's default): requests are revealed, the
///     server moves, requests are served from the *new* position;
///   * kServeThenMove (the "Answer-First" variant): requests are served from
///     the *old* position, then the server may move (still knowing them).
///
/// Requests live in a flat SoA RequestStore (see request_store.hpp);
/// `step(t)` hands out BatchView spans into it. Validation (D, m, request
/// dimensions) happens exactly once, when the store is built — copying an
/// Instance (e.g. with_order) is a plain buffer copy.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/request_store.hpp"

namespace mobsrv::sim {

/// Which side of the move the service cost is charged on.
enum class ServiceOrder {
  kMoveThenServe,  ///< cost_t = D·d(P_t,P_{t+1}) + Σ d(P_{t+1}, v_{t,i})
  kServeThenMove,  ///< cost_t = Σ d(P_t, v_{t,i}) + D·d(P_t,P_{t+1})
};

/// What to do when an algorithm proposes a move beyond its speed limit.
enum class SpeedLimitPolicy {
  kThrow,  ///< contract violation (used by tests to catch algorithm bugs)
  kClamp,  ///< move as far toward the proposal as the limit allows
};

/// The one spelling of each enum value in every on-disk and wire format
/// (trace files, scenario files, serve frames). The parsers return nullopt
/// for unknown names, so each format words its own error.
[[nodiscard]] inline const char* order_name(ServiceOrder order) {
  return order == ServiceOrder::kMoveThenServe ? "move-then-serve" : "serve-then-move";
}
[[nodiscard]] inline std::optional<ServiceOrder> parse_order(std::string_view name) {
  for (const ServiceOrder order : {ServiceOrder::kMoveThenServe, ServiceOrder::kServeThenMove})
    if (name == order_name(order)) return order;
  return std::nullopt;
}
[[nodiscard]] inline const char* policy_name(SpeedLimitPolicy policy) {
  return policy == SpeedLimitPolicy::kThrow ? "throw" : "clamp";
}
[[nodiscard]] inline std::optional<SpeedLimitPolicy> parse_policy(std::string_view name) {
  for (const SpeedLimitPolicy policy : {SpeedLimitPolicy::kThrow, SpeedLimitPolicy::kClamp})
    if (name == policy_name(policy)) return policy;
  return std::nullopt;
}

/// Model constants shared by online algorithms and offline solvers.
struct ModelParams {
  double move_cost_weight = 1.0;  ///< D >= 1, cost per unit distance moved
  double max_step = 1.0;          ///< m > 0, per-round movement limit (offline)
  ServiceOrder order = ServiceOrder::kMoveThenServe;

  void validate() const {
    MOBSRV_CHECK_MSG(move_cost_weight >= 1.0, "the paper requires D >= 1");
    MOBSRV_CHECK_MSG(max_step > 0.0, "movement limit m must be positive");
  }
};

/// A full problem instance: start position plus the request sequence.
class Instance {
 public:
  /// Builds from owning AoS batches; validates every request's dimension
  /// against the start (once — copies never re-validate) and sizes the flat
  /// buffer with a single exact reservation.
  Instance(Point start, ModelParams params, const std::vector<RequestBatch>& steps)
      : Instance(std::move(start), params, RequestStore::from_batches(steps)) {}

  /// Adopts an already-built (and therefore already-validated) store. The
  /// store's dimension must match the start's unless it is still
  /// dimensionless (no requests yet).
  Instance(Point start, ModelParams params, RequestStore store)
      : start_(std::move(start)), params_(params), store_(std::move(store)) {
    params_.validate();
    MOBSRV_CHECK_MSG(!start_.empty(), "start position must have a dimension");
    MOBSRV_CHECK_MSG(store_.dim() == 0 || store_.dim() == start_.dim(),
                     "request dimension mismatch");
  }

  [[nodiscard]] int dim() const noexcept { return start_.dim(); }
  [[nodiscard]] const Point& start() const noexcept { return start_; }
  [[nodiscard]] const ModelParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t horizon() const noexcept { return store_.horizon(); }
  [[nodiscard]] const RequestStore& store() const noexcept { return store_; }
  [[nodiscard]] BatchView step(std::size_t t) const { return store_.batch(t); }

  /// Appends one step to the request sequence (the streaming build path;
  /// dimension-checked against the start).
  void push_step(BatchView batch) {
    MOBSRV_CHECK_MSG(batch.empty() || batch.dim() == start_.dim(), "request dimension mismatch");
    store_.push_batch(batch);
  }

  /// Minimum and maximum batch size over the sequence (Rmin, Rmax in the
  /// paper). Returns {0, 0} for an empty sequence.
  [[nodiscard]] std::pair<std::size_t, std::size_t> request_bounds() const noexcept {
    return store_.request_bounds();
  }

  /// Total number of requests over the whole sequence.
  [[nodiscard]] std::size_t total_requests() const noexcept { return store_.total_requests(); }

  /// Returns a copy with the service order flipped (used to replay the same
  /// request sequence under the Answer-First variant, as in Theorem 7).
  /// A flat buffer copy: no per-request re-validation.
  [[nodiscard]] Instance with_order(ServiceOrder order) const {
    ModelParams p = params_;
    p.order = order;
    return Instance(start_, p, store_);
  }

 private:
  Point start_;
  ModelParams params_;
  RequestStore store_;
};

}  // namespace mobsrv::sim
