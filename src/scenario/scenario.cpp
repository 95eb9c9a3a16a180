#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <type_traits>
#include <utility>
#include <variant>

#include "adversary/lower_bounds.hpp"
#include "adversary/mobility.hpp"
#include "adversary/moving_client_lb.hpp"
#include "adversary/workloads.hpp"
#include "common/contracts.hpp"
#include "io/bytes.hpp"
#include "stats/rng.hpp"
#include "trace/importers.hpp"

namespace mobsrv::scenario {

namespace {

using io::Json;
using io::quoted;
using Steps = std::vector<std::vector<sim::Point>>;

[[noreturn]] void fail(const std::string& ctx, const std::string& message) {
  throw ScenarioError(ctx + ": " + message);
}

/// The frames-layer allowlist discipline: every member of \p obj must be
/// named in \p allowed, so typos fail loudly instead of silently running
/// defaults. The error enumerates the allowed members — a scenario author's
/// only feedback channel is this message.
void reject_unknown_members(const Json& obj, std::span<const std::string_view> allowed,
                            const std::string& what, const std::string& ctx) {
  if (const Json::Member* member = io::find_unknown_member(obj, allowed))
    fail(ctx, "unknown member \"" + member->first + "\" in " + what +
                  " (allowed: " + io::join_names(allowed) + ")");
}

const Json& require(const Json& obj, const char* key, const std::string& ctx) {
  const Json* value = obj.find(key);
  if (value == nullptr) fail(ctx, "missing required member " + quoted(key));
  return *value;
}

std::string string_value(const Json& value, const std::string& key, const std::string& ctx) {
  if (!value.is_string()) fail(ctx, key + " must be a string");
  if (value.as_string().empty()) fail(ctx, key + " must not be empty");
  return value.as_string();
}

/// How a parameter's value is checked. Every rule names its value type:
/// the count rules and kDim are integers, kOrder/kPoint/kFile/kSteps have
/// their own types, the rest are finite reals.
enum class Rule {
  kCount,     ///< integer in [0, kMaxRounds]
  kCountPos,  ///< integer in [1, kMaxRounds]
  kDim,       ///< integer in [1, Point::kMaxDim]
  kNonNeg,    ///< real >= 0
  kAtLeast1,  ///< real >= 1
  kPos,       ///< real > 0
  kUnit,      ///< real in [0, 1]
  kFrac,      ///< real in (0, 1]
  kOrder,     ///< "move-then-serve" or "serve-then-move"
  kPoint,     ///< 1..kMaxDim finite coordinates
  kFile,      ///< non-empty CSV path
  kSteps,     ///< inline request batches
};

double real_value(const Json& value, Rule rule, const std::string& key, const std::string& ctx) {
  if (!value.is_number()) fail(ctx, key + " must be a number");
  const double v = value.as_double();
  if (!std::isfinite(v)) fail(ctx, key + " must be finite");
  if (rule == Rule::kNonNeg && v < 0.0) fail(ctx, key + " must be >= " + std::to_string(0.0));
  if (rule == Rule::kAtLeast1 && v < 1.0) fail(ctx, key + " must be >= " + std::to_string(1.0));
  if (rule == Rule::kPos && v <= 0.0) fail(ctx, key + " must be > " + std::to_string(0.0));
  if (rule == Rule::kUnit && (v < 0.0 || v > 1.0)) fail(ctx, key + " must be in [0, 1]");
  if (rule == Rule::kFrac && (v <= 0.0 || v > 1.0)) fail(ctx, key + " must be in (0, 1]");
  return v;
}

/// Integer-valued member in [min, kMaxRounds] — the shared ceiling keeps a
/// pasted wall-clock timestamp from dense-allocating terabytes.
std::size_t count_value(const Json& value, std::size_t min, const std::string& key,
                        const std::string& ctx) {
  if (!value.is_number()) fail(ctx, key + " must be a number");
  std::uint64_t v = 0;
  try {
    v = value.as_uint64();
  } catch (const io::JsonError&) {
    fail(ctx, key + " must be a non-negative integer");
  }
  if (v < min) fail(ctx, key + " must be >= " + std::to_string(min));
  if (v > kMaxRounds) fail(ctx, key + " exceeds the limit of " + std::to_string(kMaxRounds));
  return static_cast<std::size_t>(v);
}

int dim_value(const Json& value, const std::string& key, const std::string& ctx) {
  const std::size_t v = count_value(value, 1, key, ctx);
  if (v > static_cast<std::size_t>(sim::Point::kMaxDim))
    fail(ctx, key + " must be in [1, " + std::to_string(sim::Point::kMaxDim) + "]");
  return static_cast<int>(v);
}

sim::ServiceOrder order_value(const Json& value, const std::string& key, const std::string& ctx) {
  if (!value.is_string()) fail(ctx, key + " must be a string");
  const std::optional<sim::ServiceOrder> order = sim::parse_order(value.as_string());
  if (!order)
    fail(ctx, key + " must be \"move-then-serve\" or \"serve-then-move\", got \"" +
                  value.as_string() + "\"");
  return *order;
}

sim::Point point_value(const Json& value, const std::string& what, const std::string& ctx) {
  if (!value.is_array()) fail(ctx, what + " must be an array of coordinates");
  const Json::Array& coords = value.as_array();
  if (coords.empty() || coords.size() > static_cast<std::size_t>(sim::Point::kMaxDim))
    fail(ctx, what + " must hold 1-" + std::to_string(sim::Point::kMaxDim) + " coordinates");
  sim::Point p(static_cast<int>(coords.size()));
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (!coords[i].is_number()) fail(ctx, what + " coordinates must be numbers");
    p[static_cast<int>(i)] = coords[i].as_double();
    if (!std::isfinite(p[static_cast<int>(i)])) fail(ctx, what + " coordinates must be finite");
  }
  return p;
}

/// Inline demand data; the dimension comes from \p start when one is given,
/// else from the first request.
Steps steps_value(const Json& value, const sim::Point& start, const std::string& ctx) {
  if (!value.is_array()) fail(ctx, "\"steps\" must be an array of request batches");
  const Json::Array& steps = value.as_array();
  if (steps.empty()) fail(ctx, "\"steps\" must contain at least one step");
  if (steps.size() > kMaxRounds)
    fail(ctx, "\"steps\" exceeds the limit of " + std::to_string(kMaxRounds) + " rounds");
  int dim = start.empty() ? 0 : start.dim();
  Steps out;
  out.reserve(steps.size());
  for (std::size_t t = 0; t < steps.size(); ++t) {
    const std::string where = "\"steps\"[" + std::to_string(t) + "]";
    if (!steps[t].is_array()) fail(ctx, where + " must be an array of points");
    std::vector<sim::Point> batch;
    batch.reserve(steps[t].as_array().size());
    for (const Json& request : steps[t].as_array()) {
      sim::Point point = point_value(request, where + " request", ctx);
      if (dim == 0) dim = point.dim();
      if (point.dim() != dim)
        fail(ctx, where + ": inconsistent dimension (expected " + std::to_string(dim) +
                      " coordinates)");
      batch.push_back(std::move(point));
    }
    out.push_back(std::move(batch));
  }
  if (dim == 0)
    fail(ctx, "\"steps\" holds no requests and no \"start\" is given — cannot infer the dimension");
  return out;
}

Json point_json(const sim::Point& p) {
  Json arr = Json::array();
  for (int i = 0; i < p.dim(); ++i) arr.push_back(Json(p[i]));
  return arr;
}

/// Canonical emission, one overload per member type. The optional importer
/// members (start, file, steps) are written only when set.
template <class T>
void emit(Json& obj, const char* key, T value) {
  obj.set(key, Json(value));
}
void emit(Json& obj, const char* key, sim::ServiceOrder order) {
  obj.set(key, Json(sim::order_name(order)));
}
void emit(Json& obj, const char* key, const sim::Point& point) {
  if (!point.empty()) obj.set(key, point_json(point));
}
void emit(Json& obj, const char* key, const std::string& text) {
  if (!text.empty()) obj.set(key, Json(text));
}
void emit(Json& obj, const char* key, const Steps& steps) {
  if (steps.empty()) return;
  Json batches = Json::array();
  for (const std::vector<sim::Point>& batch : steps) {
    Json requests = Json::array();
    for (const sim::Point& request : batch) requests.push_back(point_json(request));
    batches.push_back(std::move(requests));
  }
  obj.set(key, std::move(batches));
}

// ---------------------------------------------------------------------------
// The parameter tables.
// ---------------------------------------------------------------------------

/// A ScenarioParams member of any parameter type.
using Slot = std::variant<double ScenarioParams::*, std::size_t ScenarioParams::*,
                          int ScenarioParams::*, sim::ServiceOrder ScenarioParams::*,
                          sim::Point ScenarioParams::*, std::string ScenarioParams::*,
                          Steps ScenarioParams::*>;

/// One parameter of one kind: its JSON key, its range rule and the
/// ScenarioParams member it sets. A kind's fields, in order, are its
/// allowlist and its canonical member order.
struct Field {
  const char* key;
  Rule rule;
  Slot slot;
};

/// A Field of the kind whose generator (or importer) takes an \p A, bound
/// to the member of \p A it feeds: that member's default is the parameter's
/// default, and materialize copies the parsed value into it. Unbound when
/// only the scenario layer reads the parameter (a CSV path, inline steps).
template <class A>
struct Param {
  template <class T>
  Param(const char* key, Rule rule, T ScenarioParams::*slot,
        std::type_identity_t<T> A::*target = nullptr)
      : field{key, rule, slot} {
    if (target == nullptr) return;
    read_default = [slot, target](ScenarioParams& p, const A& a) { p.*slot = a.*target; };
    feed = [slot, target](const ScenarioParams& p, A& a) { a.*target = p.*slot; };
  }

  Field field;
  std::function<void(ScenarioParams&, const A&)> read_default;
  std::function<void(const ScenarioParams&, A&)> feed;
};

/// What a generator sees besides its own parameter struct.
struct Inputs {
  const ScenarioParams& params;  ///< the importer kinds' file/steps
  stats::Rng& rng;
  const std::filesystem::path& base_dir;
};

template <class A>
using Generator = trace::TraceFile (*)(const A&, const Inputs&);

/// One generator or importer kind, with its typed table erased: the fields
/// drive parsing and emission, the defaults and the generator call come
/// from the parameter struct.
struct Kind {
  std::string name;
  std::vector<Field> fields;
  std::vector<std::string_view> keys;
  ScenarioParams defaults;
  std::function<trace::TraceFile(const ScenarioParams&, stats::Rng&,
                                 const std::filesystem::path&)>
      build;

  [[nodiscard]] bool accepts(std::string_view key) const {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  }
};

template <class A>
Kind make_kind(std::string name, std::vector<Param<A>> params, Generator<A> generate) {
  Kind kind;
  kind.name = std::move(name);
  const A defaults{};
  for (const Param<A>& param : params) {
    kind.fields.push_back(param.field);
    kind.keys.emplace_back(param.field.key);
    if (param.read_default) param.read_default(kind.defaults, defaults);
  }
  kind.build = [params = std::move(params), generate](const ScenarioParams& p, stats::Rng& rng,
                                                      const std::filesystem::path& base_dir) {
    A args{};
    for (const Param<A>& param : params)
      if (param.feed) param.feed(p, args);
    return generate(args, Inputs{p, rng, base_dir});
  };
  return kind;
}

trace::TraceFile adversarial(adv::AdversarialInstance a) {
  trace::TraceFile file({}, std::move(a.instance));
  file.adversary = trace::AdversaryInfo{a.adversary_cost, std::move(a.adversary_positions)};
  return file;
}

trace::TraceFile moving_client(sim::MovingClientInstance mc) {
  trace::TraceFile file({}, sim::to_instance(mc));
  file.moving_client = std::move(mc);
  return file;
}

/// A mobility model run as a single-agent Moving Client instance: the
/// model's own parameters plus the server side, whose defaults (unit server
/// speed, D = 2) are the starter corpus's choice.
template <class Model>
struct SingleAgent : Model {
  double move_cost_weight = 2.0;
  double server_speed = 1.0;
};

template <class Model>
trace::TraceFile single_agent(const SingleAgent<Model>& a, sim::Point start, sim::AgentPath path) {
  sim::MovingClientInstance mc;
  mc.start = std::move(start);
  mc.server_speed = a.server_speed;
  mc.agent_speed = a.speed;
  mc.move_cost_weight = a.move_cost_weight;
  mc.agents.push_back(std::move(path));
  return moving_client(std::move(mc));
}

std::filesystem::path resolve_path(const std::filesystem::path& base_dir,
                                   const std::string& file) {
  const std::filesystem::path path(file);
  if (path.is_absolute() || base_dir.empty()) return path;
  return base_dir / path;
}

trace::TraceFile inline_demand(const trace::DemandImportOptions& a, const Steps& steps) {
  std::vector<sim::RequestBatch> batches(steps.size());
  for (std::size_t t = 0; t < steps.size(); ++t) batches[t].requests = steps[t];
  sim::Point start = a.start;
  if (start.empty())
    for (const sim::RequestBatch& batch : batches) {
      if (batch.empty()) continue;
      start = batch.requests.front();
      break;
    }
  sim::ModelParams params;
  params.move_cost_weight = a.move_cost_weight;
  params.max_step = a.max_step;
  params.order = a.order;
  return trace::TraceFile({}, sim::Instance(start, params, std::move(batches)));
}

/// Every kind, in registry order: one table per kind, rows in canonical
/// member order, then the generator call.
const std::vector<Kind>& kinds() {
  using S = ScenarioParams;
  static const std::vector<Kind> kKinds = [] {
    std::vector<Kind> k;
    {
      using A = adv::Theorem1Params;
      k.push_back(make_kind<A>(
          "theorem1",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"m", Rule::kPos, &S::max_step, &A::max_step},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"requests_per_step", Rule::kCountPos, &S::requests_per_step,
               &A::requests_per_step},
              {"x", Rule::kCount, &S::x, &A::x},
          },
          [](const A& a, const Inputs& in) { return adversarial(adv::make_theorem1(a, in.rng)); }));
    }
    {
      using A = adv::Theorem2Params;
      k.push_back(make_kind<A>(
          "theorem2",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"m", Rule::kPos, &S::max_step, &A::max_step},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"delta", Rule::kPos, &S::delta, &A::delta},
              {"r_min", Rule::kCountPos, &S::r_min, &A::r_min},
              {"r_max", Rule::kCountPos, &S::r_max, &A::r_max},
              {"x", Rule::kCount, &S::x, &A::x},
          },
          [](const A& a, const Inputs& in) { return adversarial(adv::make_theorem2(a, in.rng)); }));
    }
    {
      using A = adv::Theorem3Params;
      k.push_back(make_kind<A>(
          "theorem3",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"m", Rule::kPos, &S::max_step, &A::max_step},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"requests_per_step", Rule::kCountPos, &S::requests_per_step,
               &A::requests_per_step},
          },
          [](const A& a, const Inputs& in) { return adversarial(adv::make_theorem3(a, in.rng)); }));
    }
    {
      using A = adv::Theorem8Params;
      k.push_back(make_kind<A>(
          "theorem8-moving-client",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"server_speed", Rule::kPos, &S::server_speed, &A::server_speed},
              {"epsilon", Rule::kPos, &S::epsilon, &A::epsilon},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"x", Rule::kCount, &S::x, &A::x},
          },
          [](const A& a, const Inputs& in) {
            adv::MovingClientAdversarial result = adv::make_theorem8(a, in.rng);
            trace::TraceFile file = moving_client(std::move(result.mc));
            file.adversary = trace::AdversaryInfo{result.adversary_cost,
                                                  std::move(result.adversary_positions)};
            return file;
          }));
    }
    {
      using A = adv::DriftingHotspotParams;
      k.push_back(make_kind<A>(
          "drifting-hotspot",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"m", Rule::kPos, &S::max_step, &A::max_step},
              {"drift_speed", Rule::kNonNeg, &S::drift_speed, &A::drift_speed},
              {"spread", Rule::kNonNeg, &S::spread, &A::spread},
              {"r_min", Rule::kCountPos, &S::r_min, &A::r_min},
              {"r_max", Rule::kCountPos, &S::r_max, &A::r_max},
          },
          [](const A& a, const Inputs& in) {
            return trace::TraceFile({}, adv::make_drifting_hotspot(a, in.rng));
          }));
    }
    {
      using A = adv::CommuteParams;
      k.push_back(make_kind<A>(
          "commute",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"m", Rule::kPos, &S::max_step, &A::max_step},
              {"site_distance", Rule::kPos, &S::site_distance, &A::site_distance},
              {"period", Rule::kCountPos, &S::period, &A::period},
              {"spread", Rule::kNonNeg, &S::spread, &A::spread},
              {"requests_per_step", Rule::kCountPos, &S::requests_per_step,
               &A::requests_per_step},
          },
          [](const A& a, const Inputs& in) {
            return trace::TraceFile({}, adv::make_commute(a, in.rng));
          }));
    }
    {
      using A = adv::BurstParams;
      k.push_back(make_kind<A>(
          "bursts",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"m", Rule::kPos, &S::max_step, &A::max_step},
              {"drift_speed", Rule::kNonNeg, &S::drift_speed, &A::drift_speed},
              {"spread", Rule::kNonNeg, &S::spread, &A::spread},
              {"r_min", Rule::kCountPos, &S::r_min, &A::r_min},
              {"r_max", Rule::kCountPos, &S::r_max, &A::r_max},
              {"burst_probability", Rule::kUnit, &S::burst_probability, &A::burst_probability},
          },
          [](const A& a, const Inputs& in) {
            return trace::TraceFile({}, adv::make_bursts(a, in.rng));
          }));
    }
    {
      using A = adv::UniformNoiseParams;
      k.push_back(make_kind<A>(
          "uniform-noise",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"m", Rule::kPos, &S::max_step, &A::max_step},
              {"half_width", Rule::kPos, &S::half_width, &A::half_width},
              {"requests_per_step", Rule::kCountPos, &S::requests_per_step,
               &A::requests_per_step},
          },
          [](const A& a, const Inputs& in) {
            return trace::TraceFile({}, adv::make_uniform_noise(a, in.rng));
          }));
    }
    {
      using A = SingleAgent<adv::RandomWaypointParams>;
      k.push_back(make_kind<A>(
          "random-waypoint",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"speed", Rule::kPos, &S::speed, &A::speed},
              {"half_width", Rule::kPos, &S::half_width, &A::half_width},
              {"max_pause", Rule::kCount, &S::max_pause, &A::max_pause},
              {"min_speed_fraction", Rule::kFrac, &S::min_speed_fraction,
               &A::min_speed_fraction},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"server_speed", Rule::kPos, &S::server_speed, &A::server_speed},
          },
          [](const A& a, const Inputs& in) {
            const sim::Point start = sim::Point::zero(a.dim);
            return single_agent(a, start, adv::make_random_waypoint(a, start, in.rng));
          }));
    }
    {
      using A = SingleAgent<adv::GaussMarkovParams>;
      k.push_back(make_kind<A>(
          "gauss-markov",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"speed", Rule::kPos, &S::speed, &A::speed},
              {"alpha", Rule::kUnit, &S::alpha, &A::alpha},
              {"mean_speed_fraction", Rule::kFrac, &S::mean_speed_fraction,
               &A::mean_speed_fraction},
              {"noise_fraction", Rule::kNonNeg, &S::noise_fraction, &A::noise_fraction},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"server_speed", Rule::kPos, &S::server_speed, &A::server_speed},
          },
          [](const A& a, const Inputs& in) {
            const sim::Point start = sim::Point::zero(a.dim);
            return single_agent(a, start, adv::make_gauss_markov(a, start, in.rng));
          }));
    }
    {
      using A = SingleAgent<adv::ZigZagParams>;
      k.push_back(make_kind<A>(
          "zigzag",
          {
              {"horizon", Rule::kCountPos, &S::horizon, &A::horizon},
              {"dim", Rule::kDim, &S::dim, &A::dim},
              {"speed", Rule::kPos, &S::speed, &A::speed},
              {"half_period", Rule::kCountPos, &S::half_period, &A::half_period},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"server_speed", Rule::kPos, &S::server_speed, &A::server_speed},
          },
          [](const A& a, const Inputs&) {
            const sim::Point start = sim::Point::zero(a.dim);
            return single_agent(a, start, adv::make_zigzag(a, start));
          }));
    }
    {
      using A = trace::DemandImportOptions;
      k.push_back(make_kind<A>(
          "demand",
          {
              {"order", Rule::kOrder, &S::order, &A::order},
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"m", Rule::kPos, &S::max_step, &A::max_step},
              {"start", Rule::kPoint, &S::start, &A::start},
              {"file", Rule::kFile, &S::file},
              {"steps", Rule::kSteps, &S::steps},
          },
          [](const A& a, const Inputs& in) {
            if (in.params.has_inline_steps) return inline_demand(a, in.params.steps);
            return trace::import_demand(resolve_path(in.base_dir, in.params.file), a);
          }));
    }
    {
      using A = trace::WaypointImportOptions;
      k.push_back(make_kind<A>(
          "waypoints",
          {
              {"d", Rule::kAtLeast1, &S::move_cost_weight, &A::move_cost_weight},
              {"server_speed", Rule::kPos, &S::server_speed, &A::server_speed},
              {"agent_speed", Rule::kPos, &S::agent_speed, &A::agent_speed},
              {"file", Rule::kFile, &S::file},
          },
          [](const A& a, const Inputs& in) {
            return trace::import_waypoints(resolve_path(in.base_dir, in.params.file), a);
          }));
    }
    return k;
  }();
  return kKinds;
}

const Kind* find_kind(const std::string& name) {
  for (const Kind& kind : kinds())
    if (kind.name == name) return &kind;
  return nullptr;
}

void read_field(const Json& value, const Field& field, ScenarioParams& p, const std::string& ctx) {
  using S = ScenarioParams;
  const std::string key = quoted(field.key);
  switch (field.rule) {
    case Rule::kCount:
    case Rule::kCountPos:
      p.*std::get<std::size_t S::*>(field.slot) =
          count_value(value, field.rule == Rule::kCount ? 0 : 1, key, ctx);
      return;
    case Rule::kDim:
      p.*std::get<int S::*>(field.slot) = dim_value(value, key, ctx);
      return;
    case Rule::kOrder:
      p.*std::get<sim::ServiceOrder S::*>(field.slot) = order_value(value, key, ctx);
      return;
    case Rule::kPoint:
      p.*std::get<sim::Point S::*>(field.slot) = point_value(value, key, ctx);
      return;
    case Rule::kFile:
      p.*std::get<std::string S::*>(field.slot) = string_value(value, key, ctx);
      return;
    case Rule::kSteps:
      p.*std::get<Steps S::*>(field.slot) = steps_value(value, p.start, ctx);
      p.has_inline_steps = true;
      return;
    default:
      p.*std::get<double S::*>(field.slot) = real_value(value, field.rule, key, ctx);
  }
}

/// The importer kinds' data source: "file", or exactly one of "file" and
/// "steps" where a kind accepts both.
void require_source(const Kind& kind, const Json& obj, const std::string& ctx) {
  const bool has_file = obj.find("file") != nullptr;
  if (!kind.accepts("steps")) {
    if (!has_file) fail(ctx, "missing required member \"file\"");
    return;
  }
  if (has_file == (obj.find("steps") != nullptr))
    fail(ctx, "kind \"" + kind.name + "\" requires exactly one of \"file\" and \"steps\"");
}

ScenarioParams parse_params(const Kind& kind, const Json& obj, const std::string& ctx) {
  reject_unknown_members(obj, kind.keys, "\"params\" for kind \"" + kind.name + "\"", ctx);
  ScenarioParams p = kind.defaults;
  for (const Field& field : kind.fields) {
    // The source rows come last in a table, so the scalars are checked first.
    if (field.rule == Rule::kFile) require_source(kind, obj, ctx);
    if (const Json* value = obj.find(field.key)) read_field(*value, field, p, ctx);
    // r_max follows r_min in every table that has them.
    if (field.key == std::string_view("r_max") && p.r_max < p.r_min)
      fail(ctx, "\"r_max\" must be >= \"r_min\"");
  }
  return p;
}

Json params_json(const Scenario& sc) {
  Json obj = Json::object();
  if (const Kind* kind = find_kind(sc.kind))
    for (const Field& field : kind->fields)
      std::visit([&](auto slot) { emit(obj, field.key, sc.params.*slot); }, field.slot);
  return obj;
}

/// True when \p arr can stay on one line: only numbers, or arrays of
/// numbers (a point, or a batch of points). "steps" (arrays of arrays of
/// arrays) breaks one batch per line.
bool inline_array(const Json& arr) {
  for (const Json& element : arr.as_array()) {
    if (element.is_object()) return false;
    if (element.is_array())
      for (const Json& inner : element.as_array())
        if (inner.is_array() || inner.is_object()) return false;
  }
  return true;
}

void pretty(std::string& out, const Json& value, int indent) {
  const auto pad = [&out](int level) { out.append(static_cast<std::size_t>(level) * 2, ' '); };
  if (value.is_object()) {
    const Json::Object& obj = value.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += "{\n";
    for (std::size_t i = 0; i < obj.size(); ++i) {
      pad(indent + 1);
      Json(obj[i].first).dump_to(out);
      out += ": ";
      pretty(out, obj[i].second, indent + 1);
      if (i + 1 < obj.size()) out += ",";
      out += "\n";
    }
    pad(indent);
    out += "}";
    return;
  }
  if (value.is_array() && !inline_array(value)) {
    const Json::Array& arr = value.as_array();
    out += "[\n";
    for (std::size_t i = 0; i < arr.size(); ++i) {
      pad(indent + 1);
      pretty(out, arr[i], indent + 1);
      if (i + 1 < arr.size()) out += ",";
      out += "\n";
    }
    pad(indent);
    out += "]";
    return;
  }
  value.dump_to(out);
}

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

constexpr std::string_view kDocumentMembers[] = {"v",      "name",         "kind",
                                                 "seed",   "speed_factor", "params",
                                                 "fleet"};
constexpr std::string_view kFleetMembers[] = {"size", "spread"};

}  // namespace

const std::vector<std::string>& scenario_kinds() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Kind& kind : kinds()) names.push_back(kind.name);
    return names;
  }();
  return kNames;
}

Scenario from_json(const Json& doc, const std::string& context) {
  std::string ctx = context;
  if (!doc.is_object()) fail(ctx, "a scenario document must be a JSON object");

  // Pull the name before anything else so every later error is attributed
  // to the scenario, not just the file.
  if (const Json* name = doc.find("name"); name != nullptr && name->is_string())
    ctx += ": scenario \"" + name->as_string() + "\"";

  reject_unknown_members(doc, kDocumentMembers, "a scenario document", ctx);

  const Json& version = require(doc, "v", ctx);
  bool version_ok = version.is_number();
  if (version_ok) {
    try {
      version_ok = version.as_uint64() == kFormatVersion;
    } catch (const io::JsonError&) {
      version_ok = false;
    }
  }
  if (!version_ok)
    fail(ctx, "unsupported format version (this build reads \"v\": " +
                  std::to_string(kFormatVersion) + ")");

  Scenario sc;
  sc.name = string_value(require(doc, "name", ctx), "\"name\"", ctx);
  if (!valid_name(sc.name))
    fail(ctx, "\"name\" must use only letters, digits, '-', '_' and '.', got \"" + sc.name + "\"");
  sc.kind = string_value(require(doc, "kind", ctx), "\"kind\"", ctx);
  const Kind* kind = find_kind(sc.kind);
  if (kind == nullptr)
    fail(ctx, "unknown kind \"" + sc.kind + "\" (known kinds: " + io::join_names(scenario_kinds()) +
                  ")");

  if (const Json* seed = doc.find("seed")) {
    if (!seed->is_number()) fail(ctx, "\"seed\" must be a number");
    try {
      sc.seed = seed->as_uint64();
    } catch (const io::JsonError&) {
      fail(ctx, "\"seed\" must be a non-negative integer");
    }
  }
  if (const Json* speed = doc.find("speed_factor"))
    sc.speed_factor = real_value(*speed, Rule::kAtLeast1, "\"speed_factor\"", ctx);

  const Json* params = doc.find("params");
  if (params != nullptr && !params->is_object()) fail(ctx, "\"params\" must be an object");
  const Json empty = Json::object();
  sc.params = parse_params(*kind, params != nullptr ? *params : empty, ctx);

  if (const Json* fleet = doc.find("fleet")) {
    if (!fleet->is_object()) fail(ctx, "\"fleet\" must be an object");
    reject_unknown_members(*fleet, kFleetMembers, "\"fleet\"", ctx);
    FleetSpec spec;
    if (const Json* size = fleet->find("size")) spec.size = count_value(*size, 1, "\"size\"", ctx);
    if (spec.size > 4096) fail(ctx, "\"size\" must be in [1, 4096]");
    if (const Json* spread = fleet->find("spread"))
      spec.spread = real_value(*spread, Rule::kPos, "\"spread\"", ctx);
    sc.fleet = spec;
  }
  return sc;
}

Scenario parse(std::string_view text, const std::string& context) {
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const io::JsonError& error) {
    throw ScenarioError(context + ": " + error.what());
  }
  return from_json(doc, context);
}

Scenario load(const std::filesystem::path& path) {
  std::string text;
  if (io::read_file(path, text) != io::ReadStatus::kOk)
    throw ScenarioError(path.string() + ": cannot open (missing file?)");
  return parse(text, path.string());
}

Json to_json(const Scenario& sc) {
  Json doc = Json::object();
  doc.set("v", Json(kFormatVersion));
  doc.set("name", Json(sc.name));
  doc.set("kind", Json(sc.kind));
  doc.set("seed", Json(sc.seed));
  doc.set("speed_factor", Json(sc.speed_factor));
  doc.set("params", params_json(sc));
  if (sc.fleet) {
    Json fleet = Json::object();
    fleet.set("size", Json(sc.fleet->size));
    fleet.set("spread", Json(sc.fleet->spread));
    doc.set("fleet", std::move(fleet));
  }
  return doc;
}

std::string canonical_text(const Scenario& sc) {
  std::string out;
  pretty(out, to_json(sc), 0);
  out += "\n";
  return out;
}

trace::TraceFile materialize(const Scenario& sc, const std::filesystem::path& base_dir) {
  const Kind* kind = find_kind(sc.kind);
  if (kind == nullptr)
    throw ScenarioError("scenario \"" + sc.name + "\": unknown kind \"" + sc.kind + "\"");
  // The stream is keyed ("corpus", name, seed), the key the committed golden
  // digests were captured under: the same name and seed give the same
  // workload in every build.
  stats::Rng rng({stats::hash_name("corpus"), stats::hash_name(sc.name), sc.seed});
  trace::TraceFile file = kind->build(sc.params, rng, base_dir);
  file.meta = trace::TraceMeta{sc.name, "scenario", sc.seed};
  return file;
}

std::vector<std::filesystem::path> list_scenario_files(const std::filesystem::path& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec))
    throw ScenarioError(dir.string() + ": not a directory (missing corpus?)");
  std::vector<std::filesystem::path> files;
  for (const std::filesystem::directory_entry& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      files.push_back(entry.path());
  }
  if (files.empty()) throw ScenarioError(dir.string() + ": no *.json scenario files found");
  std::sort(files.begin(), files.end());
  return files;
}

const std::vector<Scenario>& starter_corpus() {
  static const std::vector<Scenario> kCorpus = [] {
    std::vector<Scenario> corpus;
    const auto add = [&corpus](const std::string& name, const std::string& kind) -> Scenario& {
      Scenario sc;
      sc.name = name;
      sc.kind = kind;
      sc.params = find_kind(kind)->defaults;
      corpus.push_back(std::move(sc));
      return corpus.back();
    };

    // The 12 generator scenarios, the ones mobsrv_trace records by name
    // (generator_starters). Their horizons are the scale-1 horizons.
    add("theorem1", "theorem1").params.horizon = 1024;
    {
      Scenario& sc = add("theorem2", "theorem2");
      sc.params.horizon = 2048;
      sc.params.delta = 0.5;
      sc.params.r_max = 4;
    }
    add("theorem3", "theorem3").params.horizon = 1024;
    add("theorem8-moving-client", "theorem8-moving-client").params.horizon = 1024;
    add("drifting-hotspot", "drifting-hotspot").params.horizon = 512;
    {
      Scenario& sc = add("drifting-hotspot-1d", "drifting-hotspot");
      sc.params.horizon = 512;
      sc.params.dim = 1;
    }
    add("commute", "commute").params.horizon = 512;
    add("bursts", "bursts").params.horizon = 512;
    add("uniform-noise", "uniform-noise").params.horizon = 512;
    add("random-waypoint", "random-waypoint").params.horizon = 512;
    add("gauss-markov", "gauss-markov").params.horizon = 512;
    add("zigzag", "zigzag").params.horizon = 256;

    // Importer examples: inline demand data, CSV demand, CSV waypoints.
    {
      Scenario& sc = add("inline-demand", "demand");
      sc.params.move_cost_weight = 2.0;
      sc.params.has_inline_steps = true;
      sc.params.steps = {
          {sim::Point({0.0, 0.0}), sim::Point({1.0, 0.0})},
          {sim::Point({2.0, 1.0})},
          {},
          {sim::Point({3.0, 2.0}), sim::Point({3.0, 3.0})},
          {sim::Point({4.0, 4.0})},
          {},
          {sim::Point({5.0, 4.0})},
          {sim::Point({6.0, 5.0}), sim::Point({7.0, 5.0})},
      };
    }
    {
      Scenario& sc = add("demand-csv", "demand");
      sc.params.move_cost_weight = 4.0;
      sc.params.file = "data/edge_demand.csv";
    }
    {
      Scenario& sc = add("waypoints-csv", "waypoints");
      sc.params.move_cost_weight = 2.0;
      sc.params.agent_speed = 1.25;
      sc.params.file = "data/helpers.csv";
    }

    // A fleet scenario: four servers spread around the start.
    {
      Scenario& sc = add("fleet-noise", "uniform-noise");
      sc.params.horizon = 256;
      sc.fleet = FleetSpec{4, 4.0};
    }
    return corpus;
  }();
  return kCorpus;
}

std::vector<Scenario> generator_starters() {
  std::vector<Scenario> out;
  for (const Scenario& sc : starter_corpus())
    if (!sc.fleet && find_kind(sc.kind)->accepts("horizon")) out.push_back(sc);
  return out;
}

trace::TraceFile starter_trace(const std::string& name, std::uint64_t seed, double scale) {
  const std::vector<Scenario> starters = generator_starters();
  const auto it = std::find_if(starters.begin(), starters.end(),
                               [&](const Scenario& sc) { return sc.name == name; });
  if (it == starters.end()) throw ContractViolation("unknown corpus scenario: " + name);
  Scenario sc = *it;
  sc.seed = seed;
  const double h = static_cast<double>(sc.params.horizon) * scale;
  // Guard the double→size_t cast: casting a value ≥ 2^64 (or NaN) is UB,
  // and anything near it is an absurd horizon anyway.
  MOBSRV_CHECK_MSG(scale > 0.0 && h < 1e9, "corpus scale out of range (horizon would exceed 1e9)");
  sc.params.horizon = std::max<std::size_t>(16, static_cast<std::size_t>(h));
  return materialize(sc);
}

std::vector<std::filesystem::path> write_corpus(trace::Recorder& recorder, std::uint64_t seed,
                                                double scale,
                                                const std::vector<std::string>& algorithms,
                                                double speed_factor) {
  std::vector<std::filesystem::path> paths;
  for (const Scenario& sc : generator_starters()) {
    trace::TraceFile file = starter_trace(sc.name, seed, scale);
    for (const std::string& algorithm : algorithms)
      file.runs.push_back(trace::record_run(file.instance, algorithm, seed, speed_factor));
    paths.push_back(recorder.write(file));
  }
  return paths;
}

}  // namespace mobsrv::scenario
