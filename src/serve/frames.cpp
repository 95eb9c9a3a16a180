#include "serve/frames.hpp"

#include <charconv>
#include <cmath>

#include "common/contracts.hpp"

namespace mobsrv::serve {

namespace {

using io::Json;
using io::quoted;

/// The tenant a frame names, best-effort, for error attribution. Returns
/// empty when the line is too broken to tell.
std::string sniff_tenant(const Json& doc) {
  if (!doc.is_object()) return {};
  const Json* tenant = doc.find("tenant");
  if (tenant != nullptr && tenant->is_string()) return tenant->as_string();
  return {};
}

[[noreturn]] void fail(const std::string& message, const std::string& tenant) {
  throw FrameError(message, tenant);
}

/// Rejects members outside \p allowed — a typo'd member must fail loudly,
/// never be silently ignored (the CLI flag discipline, applied to frames).
void reject_unknown_members(const Json& doc, std::initializer_list<std::string_view> allowed,
                            const std::string& type, const std::string& tenant) {
  if (const Json::Member* member = io::find_unknown_member(doc, allowed))
    fail("unknown member \"" + member->first + "\" in \"" + type + "\" frame", tenant);
}

const Json& require(const Json& doc, const char* key, const std::string& type,
                    const std::string& tenant) {
  const Json* value = doc.find(key);
  if (value == nullptr) fail("\"" + type + "\" frame is missing \"" + key + "\"", tenant);
  return *value;
}

std::string require_string(const Json& doc, const char* key, const std::string& type,
                           const std::string& tenant) {
  const Json& value = require(doc, key, type, tenant);
  if (!value.is_string()) fail(quoted(key) + " must be a string", tenant);
  return value.as_string();
}

double number_or(const Json& doc, const char* key, double fallback, const std::string& tenant) {
  const Json* value = doc.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) fail(quoted(key) + " must be a number", tenant);
  return value->as_double();
}

std::uint64_t uint_or(const Json& doc, const char* key, std::uint64_t fallback,
                      const std::string& tenant) {
  const Json* value = doc.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) fail(quoted(key) + " must be an unsigned integer", tenant);
  try {
    return value->as_uint64();
  } catch (const io::JsonError&) {
    fail(quoted(key) + " must be an unsigned integer", tenant);
  }
}

/// Checks a frame's optional `v` member (mandatory on `open`, where the
/// protocol contract is declared).
void check_version(const Json& doc, bool required, const std::string& type,
                   const std::string& tenant) {
  const Json* v = doc.find("v");
  if (v == nullptr) {
    if (required)
      fail("\"" + type + "\" frame must declare the protocol version (\"v\": " +
               std::to_string(kProtocolVersion) + ")",
           tenant);
    return;
  }
  const std::uint64_t version = uint_or(doc, "v", 0, tenant);
  if (version != kProtocolVersion)
    fail("protocol version " + std::to_string(version) + " not supported (this build speaks " +
             std::to_string(kProtocolVersion) + ")",
         tenant);
}

/// Parses a coordinate array into a Point of 1..kMaxDim doubles.
sim::Point parse_point(const Json& value, const char* what, const std::string& tenant) {
  if (!value.is_array()) fail(std::string(what) + " must be an array of numbers", tenant);
  const Json::Array& coords = value.as_array();
  if (coords.empty() || coords.size() > static_cast<std::size_t>(sim::Point::kMaxDim))
    fail(std::string(what) + " must have 1.." + std::to_string(sim::Point::kMaxDim) +
             " coordinates, got " + std::to_string(coords.size()),
         tenant);
  sim::Point p(static_cast<int>(coords.size()));
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (!coords[i].is_number())
      fail(std::string(what) + " coordinates must be numbers", tenant);
    p[static_cast<int>(i)] = coords[i].as_double();
  }
  return p;
}

Json point_to_json(const sim::Point& p) {
  Json coords = Json::array();
  for (int i = 0; i < p.dim(); ++i) coords.push_back(p[i]);
  return coords;
}

/// Reads the TenantSpec members out of \p doc (ignoring `type`/`v`, which
/// the frame layer owns). Shared by `open` frames and snapshot entries.
TenantSpec spec_from_members(const Json& doc, const std::string& type) {
  const std::string tenant = require_string(doc, "tenant", type, sniff_tenant(doc));
  if (tenant.empty()) fail("\"tenant\" must be a non-empty string", tenant);

  TenantSpec spec;
  spec.tenant = tenant;
  spec.algorithm = require_string(doc, "algorithm", type, tenant);
  spec.seed = uint_or(doc, "seed", 0, tenant);

  const std::uint64_t dim = uint_or(doc, "dim", 0, tenant);
  if (dim < 1 || dim > static_cast<std::uint64_t>(sim::Point::kMaxDim))
    fail("\"dim\" must be 1.." + std::to_string(sim::Point::kMaxDim), tenant);
  spec.dim = static_cast<int>(dim);

  const std::uint64_t k = uint_or(doc, "k", 1, tenant);
  if (k < 1) fail("\"k\" must be >= 1", tenant);
  spec.fleet_size = static_cast<std::size_t>(k);

  spec.speed_factor = number_or(doc, "speed", 1.0, tenant);
  if (spec.speed_factor < 1.0) fail("\"speed\" must be >= 1", tenant);
  if (const Json* policy = doc.find("policy"); policy != nullptr) {
    if (!policy->is_string()) fail("\"policy\" must be a string", tenant);
    const std::optional<sim::SpeedLimitPolicy> parsed = sim::parse_policy(policy->as_string());
    if (!parsed)
      fail("unknown \"policy\" \"" + policy->as_string() +
               "\" (expected \"clamp\" or \"throw\")",
           tenant);
    spec.policy = *parsed;
  }
  spec.params.move_cost_weight = number_or(doc, "D", 1.0, tenant);
  if (spec.params.move_cost_weight < 1.0) fail("\"D\" must be >= 1", tenant);
  spec.params.max_step = number_or(doc, "m", 1.0, tenant);
  if (spec.params.max_step <= 0.0) fail("\"m\" must be > 0", tenant);
  if (const Json* order = doc.find("order"); order != nullptr) {
    if (!order->is_string()) fail("\"order\" must be a string", tenant);
    const std::optional<sim::ServiceOrder> parsed = sim::parse_order(order->as_string());
    if (!parsed)
      fail("unknown \"order\" \"" + order->as_string() +
               "\" (expected \"move-then-serve\" or \"serve-then-move\")",
           tenant);
    spec.params.order = *parsed;
  }

  spec.rate = number_or(doc, "rate", 0.0, tenant);
  if (spec.rate < 0.0) fail("\"rate\" must be >= 0", tenant);
  spec.rate_burst = number_or(doc, "burst", 0.0, tenant);
  if (spec.rate_burst != 0.0) {
    if (spec.rate <= 0.0) fail("\"burst\" requires a positive \"rate\"", tenant);
    if (spec.rate_burst < 1.0) fail("\"burst\" must be >= 1", tenant);
  }

  const Json* start = doc.find("start");
  const Json* starts = doc.find("starts");
  if (start != nullptr && starts != nullptr)
    fail("give \"start\" (shared) or \"starts\" (per server), not both", tenant);
  if (starts != nullptr) {
    if (!starts->is_array()) fail("\"starts\" must be an array of points", tenant);
    for (const Json& p : starts->as_array())
      spec.starts.push_back(parse_point(p, "\"starts\" entry", tenant));
    if (spec.starts.size() != spec.fleet_size)
      fail("\"starts\" has " + std::to_string(spec.starts.size()) + " points for k = " +
               std::to_string(spec.fleet_size),
           tenant);
  } else {
    const sim::Point shared = start != nullptr
                                  ? parse_point(*start, "\"start\"", tenant)
                                  : sim::Point::zero(spec.dim);
    spec.starts.assign(spec.fleet_size, shared);
  }
  for (const sim::Point& p : spec.starts)
    if (p.dim() != spec.dim)
      fail("start position has " + std::to_string(p.dim()) + " coordinates, \"dim\" says " +
               std::to_string(spec.dim),
           tenant);
  return spec;
}

}  // namespace

Json tenant_spec_to_json(const TenantSpec& spec) {
  Json doc = Json::object();
  doc.set("tenant", spec.tenant);
  doc.set("algorithm", spec.algorithm);
  doc.set("seed", spec.seed);
  doc.set("dim", spec.dim);
  doc.set("k", spec.fleet_size);
  doc.set("speed", spec.speed_factor);
  doc.set("policy", sim::policy_name(spec.policy));
  doc.set("D", spec.params.move_cost_weight);
  doc.set("m", spec.params.max_step);
  doc.set("order", sim::order_name(spec.params.order));
  // Rate members are emitted only when set, keeping rate-less specs (and
  // thus every pre-rate snapshot/`opened` frame) byte-identical to v1.
  if (spec.rate > 0.0) {
    doc.set("rate", spec.rate);
    if (spec.rate_burst > 0.0) doc.set("burst", spec.rate_burst);
  }
  Json starts = Json::array();
  for (const sim::Point& p : spec.starts) starts.push_back(point_to_json(p));
  doc.set("starts", std::move(starts));
  return doc;
}

TenantSpec tenant_spec_from_json(const Json& doc) {
  if (!doc.is_object()) throw FrameError("tenant spec must be a JSON object");
  reject_unknown_members(doc,
                         {"tenant", "algorithm", "seed", "dim", "k", "speed", "policy", "D", "m",
                          "order", "start", "starts", "rate", "burst"},
                         "tenant spec", sniff_tenant(doc));
  return spec_from_members(doc, "tenant spec");
}

TenantSpec snapshot_spec_from_json(const Json& entry) {
  if (!entry.is_object()) throw FrameError("tenant spec must be a JSON object");
  reject_unknown_members(entry,
                         {"tenant", "algorithm", "seed", "dim", "k", "speed", "policy", "D", "m",
                          "order", "start", "starts", "rate", "burst", "slot"},
                         "tenant spec", sniff_tenant(entry));
  return spec_from_members(entry, "tenant spec");
}

namespace {

/// Reads one number in strict JSON grammar at \p pos into \p value and
/// moves \p pos past it. False when the grammar does not match there or the
/// value is not a finite double; \p pos is then unchanged.
bool scan_number(std::string_view line, std::size_t& pos, double& value) {
  const char* const begin = line.data() + pos;
  const char* const end = line.data() + line.size();
  const char* p = begin;
  const auto digits = [&p, end] {
    const char* const first = p;
    while (p != end && *p >= '0' && *p <= '9') ++p;
    return p != first;
  };
  if (p != end && *p == '-') ++p;
  if (p != end && *p == '0')
    ++p;
  else if (!digits())
    return false;
  if (p != end && *p == '.') {
    ++p;
    if (!digits()) return false;
  }
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    if (!digits()) return false;
  }
  const auto [ptr, ec] = std::from_chars(begin, p, value);
  if (ec != std::errc() || ptr != p || !std::isfinite(value)) return false;
  pos += static_cast<std::size_t>(p - begin);
  return true;
}

}  // namespace

bool scan_req_frame(std::string_view line, ClientFrame& frame) {
  constexpr std::string_view kHead = R"({"type":"req","tenant":")";
  constexpr std::string_view kBatch = R"(","batch":[)";
  if (!line.starts_with(kHead)) return false;
  std::size_t pos = kHead.size();
  const std::size_t name_begin = pos;
  for (;; ++pos) {
    if (pos == line.size()) return false;
    const auto c = static_cast<unsigned char>(line[pos]);
    if (c == '"') break;
    if (c == '\\' || c < 0x20 || c >= 0x80) return false;
  }
  const std::string_view name = line.substr(name_begin, pos - name_begin);
  if (line.substr(pos, kBatch.size()) != kBatch) return false;
  pos += kBatch.size();

  // Each request's coordinates land in `coords` first: its dimension is
  // known only at its closing bracket.
  std::vector<sim::Point>& requests = frame.batch.requests;
  requests.clear();
  int dim = 0;
  bool more = pos < line.size() && line[pos] != ']';
  if (!more) ++pos;
  while (more) {
    if (pos == line.size() || line[pos] != '[') return false;
    ++pos;
    double coords[sim::Point::kMaxDim];
    int n = 0;
    for (bool open = true; open;) {
      if (n == sim::Point::kMaxDim || !scan_number(line, pos, coords[n]) || pos == line.size())
        return false;
      ++n;
      const char c = line[pos++];
      if (c != ',' && c != ']') return false;
      open = c == ',';
    }
    if (dim == 0)
      dim = n;
    else if (n != dim)
      return false;
    sim::Point& request = requests.emplace_back(n);
    for (int i = 0; i < n; ++i) request[i] = coords[i];
    if (pos == line.size()) return false;
    const char c = line[pos++];
    if (c != ',' && c != ']') return false;
    more = c == ',';
  }
  if (pos + 1 != line.size() || line[pos] != '}') return false;
  frame.type = FrameType::kReq;
  frame.tenant.assign(name);
  return true;
}

ClientFrame parse_client_frame(std::string_view line) {
  ClientFrame frame;
  parse_client_frame(line, frame);
  return frame;
}

void parse_client_frame(std::string_view line, ClientFrame& frame) {
  if (!scan_req_frame(line, frame)) frame = parse_client_frame_dom(line);
}

ClientFrame parse_client_frame_dom(std::string_view line) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const io::JsonError& error) {
    throw FrameError(std::string("malformed JSON: ") + error.what());
  }
  if (!doc.is_object()) throw FrameError("frame must be a JSON object");
  const std::string tenant = sniff_tenant(doc);
  const Json* type_member = doc.find("type");
  if (type_member == nullptr || !type_member->is_string())
    fail("frame is missing its \"type\"", tenant);
  const std::string& type = type_member->as_string();

  ClientFrame frame;
  if (type == "open") {
    frame.type = FrameType::kOpen;
    check_version(doc, /*required=*/true, type, tenant);
    reject_unknown_members(doc,
                           {"type", "v", "tenant", "algorithm", "seed", "dim", "k", "speed",
                            "policy", "D", "m", "order", "start", "starts", "rate", "burst"},
                           type, tenant);
    frame.open = spec_from_members(doc, type);
    frame.tenant = frame.open.tenant;
  } else if (type == "req") {
    frame.type = FrameType::kReq;
    check_version(doc, /*required=*/false, type, tenant);
    reject_unknown_members(doc, {"type", "v", "tenant", "batch"}, type, tenant);
    frame.tenant = require_string(doc, "tenant", type, tenant);
    const Json& batch = require(doc, "batch", type, tenant);
    if (!batch.is_array()) fail("\"batch\" must be an array of points", tenant);
    frame.batch.requests.reserve(batch.as_array().size());
    int dim = 0;
    for (const Json& request : batch.as_array()) {
      sim::Point p = parse_point(request, "\"batch\" request", tenant);
      if (dim == 0)
        dim = p.dim();
      else if (p.dim() != dim)
        fail("\"batch\" mixes " + std::to_string(dim) + "- and " + std::to_string(p.dim()) +
                 "-dimensional requests",
             tenant);
      frame.batch.requests.push_back(std::move(p));
    }
  } else if (type == "close") {
    frame.type = FrameType::kClose;
    check_version(doc, /*required=*/false, type, tenant);
    reject_unknown_members(doc, {"type", "v", "tenant"}, type, tenant);
    frame.tenant = require_string(doc, "tenant", type, tenant);
  } else if (type == "stats") {
    frame.type = FrameType::kStats;
    check_version(doc, /*required=*/false, type, tenant);
    reject_unknown_members(doc, {"type", "v", "tenant"}, type, tenant);
    if (doc.find("tenant") != nullptr)
      frame.tenant = require_string(doc, "tenant", type, tenant);
  } else if (type == "metrics") {
    frame.type = FrameType::kMetrics;
    check_version(doc, /*required=*/false, type, tenant);
    reject_unknown_members(doc, {"type", "v"}, type, tenant);
  } else if (type == "checkpoint" || type == "shutdown" || type == "kill") {
    frame.type = type == "checkpoint" ? FrameType::kCheckpoint
                 : type == "shutdown" ? FrameType::kShutdown
                                      : FrameType::kKill;
    check_version(doc, /*required=*/false, type, tenant);
    reject_unknown_members(doc, {"type", "v"}, type, tenant);
  } else {
    fail("unknown frame type \"" + type + "\"", tenant);
  }
  return frame;
}

// ---------------------------------------------------------------------------
// Server frame builders.
// ---------------------------------------------------------------------------

std::string opened_frame(const TenantSpec& spec) {
  Json doc = Json::object();
  doc.set("type", "opened");
  doc.set("v", kProtocolVersion);
  Json body = tenant_spec_to_json(spec);
  for (Json::Member& member : body.as_object())
    doc.set(std::move(member.first), std::move(member.second));
  return doc.dump();
}

std::string busy_frame(const std::string& tenant, std::uint64_t line, std::size_t queued,
                       std::size_t limit) {
  Json doc = Json::object();
  doc.set("type", "busy");
  doc.set("tenant", tenant);
  doc.set("line", line);
  doc.set("queued", queued);
  doc.set("limit", limit);
  return doc.dump();
}

std::string error_frame(std::uint64_t line, const std::string& message,
                        const std::string& tenant, bool closed_tenant) {
  Json doc = Json::object();
  doc.set("type", "error");
  if (line > 0) doc.set("line", line);
  doc.set("message", message);
  if (!tenant.empty()) {
    doc.set("tenant", tenant);
    doc.set("closed", closed_tenant);
  }
  return doc.dump();
}

namespace {

/// Streams one JSON object's members straight into a string, with no DOM.
/// Keys are ASCII literals and go out unescaped; values go through the
/// number and string formatters Json::dump uses, so the bytes equal a DOM
/// render member for member. The caller writes the braces.
class Members {
 public:
  explicit Members(std::string& out) : out_(out) {}

  /// Writes the key; the caller appends the value.
  std::string& key(std::string_view name) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += name;
    out_ += "\":";
    return out_;
  }
  Members& uint(std::string_view name, std::uint64_t value) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    key(name).append(buf, res.ptr);
    return *this;
  }
  Members& real(std::string_view name, double value) {
    io::append_double(key(name), value);
    return *this;
  }
  Members& flag(std::string_view name, bool value) {
    key(name) += value ? "true" : "false";
    return *this;
  }
  Members& text(std::string_view name, std::string_view value) {
    io::append_escaped(key(name), value);
    return *this;
  }
  /// An array of points, each an array of its coordinates.
  Members& points(std::string_view name, std::span<const sim::Point> value) {
    std::string& list = key(name);
    list += '[';
    for (std::size_t i = 0; i < value.size(); ++i) {
      list += i == 0 ? "[" : ",[";
      for (int d = 0; d < value[i].dim(); ++d) {
        if (d != 0) list += ',';
        io::append_double(list, value[i][d]);
      }
      list += ']';
    }
    list += ']';
    return *this;
  }
  /// The obs::summary_to_json object.
  Members& summary(std::string_view name, const obs::HistogramSummary& value) {
    key(name) += '{';
    Members(out_)
        .uint("count", value.count)
        .uint("sum", value.sum)
        .uint("p50", value.p50)
        .uint("p90", value.p90)
        .uint("p99", value.p99)
        .uint("max", value.max);
    out_ += '}';
    return *this;
  }

 private:
  std::string& out_;
  bool first_ = true;
};

/// Per-tenant rows for stats/metrics frames; \p rows (when given) is
/// indexed by slot id, parallel to \p stats.
void append_tenant_rows(std::string& out, const std::vector<core::SessionStats>& stats,
                        const std::vector<TenantObsRow>* rows) {
  if (rows != nullptr)
    MOBSRV_CHECK_MSG(rows->size() == stats.size(),
                     "telemetry rows out of sync with mux snapshot");
  out += '[';
  for (std::size_t i = 0; i < stats.size(); ++i) {
    out += i == 0 ? "{" : ",{";
    append_tenant_members(out, stats[i], rows != nullptr ? &(*rows)[i] : nullptr);
    out += '}';
  }
  out += ']';
}

}  // namespace

void append_tenant_members(std::string& out, const core::SessionStats& stats,
                           const TenantObsRow* row) {
  Members members(out);
  members.text("tenant", stats.tenant)
      .text("algorithm", stats.algorithm)
      .uint("k", stats.fleet_size)
      .uint("steps", stats.steps)
      .real("move", stats.move_cost)
      .real("service", stats.service_cost)
      .real("total", stats.total_cost)
      .flag("closed", stats.closed);
  if (row != nullptr) {
    // Telemetry members strictly append to the v1 row (byte-compat rule).
    members.uint("queued", stats.horizon - stats.steps)
        .uint("reqs", row->reqs)
        .uint("outcomes", row->outcomes)
        .uint("busys", row->busys)
        .uint("errors", row->errors)
        .uint("inflight_hwm", row->inflight_hwm)
        .uint("throttled", stats.throttled_rounds)
        .summary("ingest_latency_ns", row->ingest_latency);
  }
}

void append_outcome(std::string& out, std::string_view tenant, std::size_t t,
                    double move_delta, double service_delta,
                    const core::SessionProgress& progress,
                    std::span<const sim::Point> positions, bool lean) {
  out += R"({"type":"outcome",)";
  Members members(out);
  members.text("tenant", tenant)
      .uint("t", t)
      .real("move", move_delta)
      .real("service", service_delta)
      .real("move_total", progress.move_cost)
      .real("service_total", progress.service_cost)
      .real("total", progress.total_cost);
  if (!lean) members.points("positions", positions);
  out += '}';
}

std::string outcome_frame(const std::string& tenant, std::size_t t, double move_delta,
                          double service_delta, const core::SessionStats& stats, bool lean) {
  std::string out;
  append_outcome(out, tenant, t, move_delta, service_delta,
                 {stats.steps, stats.move_cost, stats.service_cost, stats.total_cost,
                  stats.throttled_rounds},
                 stats.positions, lean);
  return out;
}

std::string closed_frame(const core::SessionStats& stats) {
  std::string out = R"({"type":"closed",)";
  append_tenant_members(out, stats);
  out += '}';
  return out;
}

std::string stats_frame(const std::vector<core::SessionStats>& stats,
                        const core::MuxTotals& totals, const std::vector<TenantObsRow>* rows,
                        bool degraded) {
  std::string out = "{";
  Members members(out);
  members.text("type", "stats");
  append_tenant_rows(members.key("tenants"), stats, rows);
  members.uint("sessions", totals.sessions)
      .uint("live", totals.live)
      .uint("steps", totals.steps)
      .real("move", totals.move_cost)
      .real("service", totals.service_cost)
      .real("total", totals.total_cost);
  if (rows != nullptr) {
    // Aggregate telemetry, appended after the v1 members (byte-compat).
    members.uint("active_sessions", totals.active)
        .uint("throttled", totals.throttled)
        .uint("queue_depth", totals.queue_depth)
        .summary("step_latency_ns", totals.step_latency)
        .summary("steps_per_session", totals.steps_per_session)
        .flag("degraded", degraded);
  }
  out += '}';
  return out;
}

std::string metrics_frame(const io::Json::Array& metrics,
                          const std::vector<core::SessionStats>& stats,
                          const std::vector<TenantObsRow>& rows) {
  std::string out = "{";
  Members members(out);
  members.text("type", "metrics").uint("v", kProtocolVersion);
  std::string& list = members.key("metrics");
  list += '[';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) list += ',';
    metrics[i].dump_to(list);
  }
  list += ']';
  append_tenant_rows(members.key("tenants"), stats, &rows);
  out += '}';
  return out;
}

std::string checkpointed_frame(const std::string& path, std::size_t sessions, std::size_t steps,
                               const std::string& mode, std::uint64_t bytes,
                               std::size_t segments) {
  Json doc = Json::object();
  doc.set("type", "checkpointed");
  doc.set("path", path);
  doc.set("sessions", sessions);
  doc.set("steps", steps);
  // Segment-chain shape, appended after the v1 members (byte-compat).
  doc.set("mode", mode);
  doc.set("bytes", bytes);
  doc.set("segments", segments);
  return doc.dump();
}

std::string bye_frame(const std::string& reason, const core::MuxTotals& totals) {
  Json doc = Json::object();
  doc.set("type", "bye");
  doc.set("reason", reason);
  doc.set("sessions", totals.sessions);
  doc.set("steps", totals.steps);
  doc.set("total", totals.total_cost);
  return doc.dump();
}

}  // namespace mobsrv::serve
