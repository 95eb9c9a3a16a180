#include "trace/importers.hpp"

#include <algorithm>
#include <fstream>
#include <map>

#include "geometry/point.hpp"
#include "trace/codec.hpp"

namespace mobsrv::trace {

namespace {

struct ParsedLine {
  std::size_t lineno = 0;
  std::vector<double> fields;
};

/// Hard ceiling on imported horizons. Real traces index rounds from 0; a
/// value like a unix timestamp would otherwise dense-allocate terabytes.
constexpr std::size_t kMaxImportRounds = std::size_t{1} << 22;  // ~4.2M rounds

[[noreturn]] void import_fail(const std::filesystem::path& path, std::size_t lineno,
                              const std::string& message) {
  throw TraceError(path.string() + ":" + std::to_string(lineno) + ": " + message);
}

/// Reads all data lines of a '#'-commented, space/comma-separated table.
std::vector<ParsedLine> read_table(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw TraceError(path.string() + ": cannot open (missing file?)");
  std::vector<ParsedLine> rows;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    ParsedLine row;
    row.lineno = lineno;
    std::size_t pos = 0;
    while (pos < line.size()) {
      while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t' || line[pos] == ','))
        ++pos;
      if (pos >= line.size()) break;
      std::size_t end = pos;
      while (end < line.size() && line[end] != ' ' && line[end] != '\t' && line[end] != ',')
        ++end;
      const std::string token = line.substr(pos, end - pos);
      try {
        std::size_t used = 0;
        const double v = std::stod(token, &used);
        if (used != token.size()) throw std::invalid_argument(token);
        row.fields.push_back(v);
      } catch (const std::exception&) {
        import_fail(path, lineno, "cannot parse number '" + token + "'");
      }
      pos = end;
    }
    if (!row.fields.empty()) rows.push_back(std::move(row));
  }
  if (rows.empty()) throw TraceError(path.string() + ": no data lines found");
  return rows;
}

std::size_t field_as_index(const std::filesystem::path& path, const ParsedLine& row,
                           std::size_t field, const char* what) {
  const double v = row.fields[field];
  // Range-check BEFORE casting: double→size_t is UB for NaN or values out
  // of range, so the comparison must happen entirely in double.
  if (!(v >= 0.0 && v < 9007199254740992.0))  // 2^53: above this, not exact anyway
    import_fail(path, row.lineno,
                std::string(what) + " must be a non-negative integer, got " + std::to_string(v));
  const auto index = static_cast<std::size_t>(v);
  if (static_cast<double>(index) != v)
    import_fail(path, row.lineno,
                std::string(what) + " must be a non-negative integer, got " + std::to_string(v));
  return index;
}

std::string import_name(const std::filesystem::path& path) {
  return "import:" + path.filename().string();
}

}  // namespace

TraceFile import_demand(const std::filesystem::path& path, const DemandImportOptions& options) {
  const std::vector<ParsedLine> rows = read_table(path);

  const int dim = static_cast<int>(rows.front().fields.size()) - 1;
  if (dim < 1 || dim > sim::Point::kMaxDim)
    import_fail(path, rows.front().lineno,
                "expected 't x1 [x2 ...]' with 1–" + std::to_string(sim::Point::kMaxDim) +
                    " coordinates, got " + std::to_string(dim));

  std::vector<sim::RequestBatch> steps;
  std::size_t prev_t = 0;
  for (const ParsedLine& row : rows) {
    if (static_cast<int>(row.fields.size()) - 1 != dim)
      import_fail(path, row.lineno,
                  "inconsistent dimension: expected " + std::to_string(dim) + " coordinates");
    const std::size_t t = field_as_index(path, row, 0, "step index");
    if (t >= kMaxImportRounds)
      import_fail(path, row.lineno,
                  "step index " + std::to_string(t) + " exceeds the import limit of " +
                      std::to_string(kMaxImportRounds) +
                      " rounds (renumber rounds from 0, not wall-clock time)");
    if (!steps.empty() && t < prev_t)
      import_fail(path, row.lineno, "step indices must be non-decreasing (got " +
                                        std::to_string(t) + " after " + std::to_string(prev_t) +
                                        ")");
    prev_t = t;
    sim::Point v(dim);
    for (int i = 0; i < dim; ++i) v[i] = row.fields[static_cast<std::size_t>(i) + 1];
    if (steps.size() <= t) steps.resize(t + 1);
    steps[t].requests.push_back(v);
  }

  sim::Point start = options.start;
  if (start.empty()) {
    // Default: start on the first request, so the trace begins "on demand".
    start = sim::Point(dim);
    for (const sim::RequestBatch& batch : steps)
      if (!batch.empty()) {
        start = batch.requests.front();
        break;
      }
  } else if (start.dim() != dim) {
    throw TraceError(path.string() + ": start position dimension " +
                     std::to_string(start.dim()) + " does not match trace dimension " +
                     std::to_string(dim));
  }

  sim::ModelParams params;
  params.move_cost_weight = options.move_cost_weight;
  params.max_step = options.max_step;
  params.order = options.order;
  return TraceFile(TraceMeta{import_name(path), "import", 0},
                   sim::Instance(start, params, std::move(steps)));
}

TraceFile import_waypoints(const std::filesystem::path& path,
                           const WaypointImportOptions& options) {
  const std::vector<ParsedLine> rows = read_table(path);

  const int dim = static_cast<int>(rows.front().fields.size()) - 2;
  if (dim < 1 || dim > sim::Point::kMaxDim)
    import_fail(path, rows.front().lineno,
                "expected 'agent t x1 [x2 ...]' with 1–" + std::to_string(sim::Point::kMaxDim) +
                    " coordinates, got " + std::to_string(dim));

  // Collect per-agent waypoints, preserving first-seen agent order.
  std::map<std::size_t, std::vector<std::pair<std::size_t, sim::Point>>> waypoints;
  std::size_t horizon = 0;
  for (const ParsedLine& row : rows) {
    if (static_cast<int>(row.fields.size()) - 2 != dim)
      import_fail(path, row.lineno,
                  "inconsistent dimension: expected " + std::to_string(dim) + " coordinates");
    const std::size_t agent = field_as_index(path, row, 0, "agent id");
    const std::size_t t = field_as_index(path, row, 1, "round");
    if (t >= kMaxImportRounds)
      import_fail(path, row.lineno,
                  "round " + std::to_string(t) + " exceeds the import limit of " +
                      std::to_string(kMaxImportRounds) +
                      " rounds (renumber rounds from 0, not wall-clock time)");
    sim::Point p(dim);
    for (int i = 0; i < dim; ++i) p[i] = row.fields[static_cast<std::size_t>(i) + 2];
    auto& list = waypoints[agent];
    if (!list.empty() && t <= list.back().first)
      import_fail(path, row.lineno, "agent " + std::to_string(agent) +
                                        ": rounds must be strictly increasing");
    list.emplace_back(t, p);
    horizon = std::max(horizon, t);
  }
  if (horizon == 0)
    throw TraceError(path.string() + ": all waypoints are at round 0 — nothing to simulate");

  // Common start: centroid of every agent's first waypoint (the Moving
  // Client model couples all agents to the server's start).
  sim::Point start = sim::Point::zero(dim);
  for (const auto& entry : waypoints) start += entry.second.front().second;
  start /= static_cast<double>(waypoints.size());

  // Interpolate each agent's waypoints into a per-round target, then walk
  // toward it clamped to the agent speed so the path is always feasible.
  sim::MovingClientInstance mc;
  mc.start = start;
  mc.server_speed = options.server_speed;
  mc.agent_speed = options.agent_speed;
  mc.move_cost_weight = options.move_cost_weight;
  for (const auto& entry : waypoints) {
    const auto& list = entry.second;
    sim::AgentPath agent_path;
    agent_path.positions.reserve(horizon);
    sim::Point pos = start;
    std::size_t next = 0;
    for (std::size_t t = 1; t <= horizon; ++t) {
      while (next < list.size() && list[next].first < t) ++next;
      sim::Point target(dim);
      if (next >= list.size()) {
        target = list.back().second;  // past the last waypoint: hold it
      } else if (next == 0 || list[next].first == t) {
        target = list[next].second;
      } else {
        const auto& [t0, p0] = list[next - 1];
        const auto& [t1, p1] = list[next];
        const double f = static_cast<double>(t - t0) / static_cast<double>(t1 - t0);
        target = geo::lerp(p0, p1, f);
      }
      pos = geo::move_toward(pos, target, options.agent_speed);
      agent_path.positions.push_back(pos);
    }
    mc.agents.push_back(std::move(agent_path));
  }

  TraceFile file(TraceMeta{import_name(path), "import", 0}, sim::to_instance(mc));
  file.moving_client = std::move(mc);
  return file;
}

}  // namespace mobsrv::trace
