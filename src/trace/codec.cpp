#include "trace/codec.hpp"

#include <fstream>

#include "io/bytes.hpp"
#include "io/json.hpp"

namespace mobsrv::trace {

namespace {

constexpr std::string_view kMagic = "MSTRCB1\n";

enum SectionTag : std::uint8_t {
  kSectionMeta = 1,
  kSectionInstance = 2,
  kSectionMovingClient = 3,
  kSectionAdversary = 4,
  kSectionRun = 5,
  kSectionEnd = 0xFF,
};

// ---------------------------------------------------------------------------
// JSONL codec.
// ---------------------------------------------------------------------------

io::Json point_to_json(const sim::Point& p) {
  io::Json arr = io::Json::array();
  for (int i = 0; i < p.dim(); ++i) arr.push_back(p[i]);
  return arr;
}

io::Json points_to_json(const std::vector<sim::Point>& points) {
  io::Json arr = io::Json::array();
  for (const sim::Point& p : points) arr.push_back(point_to_json(p));
  return arr;
}

/// Flat-trajectory overload: serialises identically to the Point-vector
/// form (same per-point JSON), so files written from TrajectoryStore paths
/// are byte-compatible with the format as first shipped.
io::Json points_to_json(const sim::TrajectoryStore& points) {
  io::Json arr = io::Json::array();
  for (std::size_t t = 0; t < points.size(); ++t) arr.push_back(point_to_json(points[t]));
  return arr;
}

sim::Point point_from_json(const io::Json& j, int dim, const std::string& origin,
                           const char* what) {
  const io::Json::Array& coords = j.as_array();
  if (static_cast<int>(coords.size()) != dim)
    fail(origin, std::string(what) + ": point has " + std::to_string(coords.size()) +
                     " coordinates, expected " + std::to_string(dim));
  sim::Point p(dim);
  for (int i = 0; i < dim; ++i) p[i] = coords[static_cast<std::size_t>(i)].as_double();
  return p;
}

std::vector<sim::Point> points_from_json(const io::Json& j, int dim, const std::string& origin,
                                         const char* what) {
  std::vector<sim::Point> out;
  out.reserve(j.as_array().size());
  for (const io::Json& pj : j.as_array()) out.push_back(point_from_json(pj, dim, origin, what));
  return out;
}

std::string encode_jsonl(const TraceFile& file) {
  std::string out;

  io::Json header = io::Json::object();
  header.set("format", "mobsrv-trace");
  header.set("version", kFormatVersion);
  header.set("name", file.meta.name);
  header.set("source", file.meta.source);
  header.set("seed", file.meta.seed);
  header.set("dim", file.instance.dim());
  header.set("horizon", file.instance.horizon());
  header.set("D", file.instance.params().move_cost_weight);
  header.set("m", file.instance.params().max_step);
  header.set("order", sim::order_name(file.instance.params().order));
  header.set("start", point_to_json(file.instance.start()));
  header.dump_to(out);
  out.push_back('\n');

  for (std::size_t t = 0; t < file.instance.horizon(); ++t) {
    points_to_json(file.instance.step(t).to_points()).dump_to(out);
    out.push_back('\n');
  }

  if (file.moving_client) {
    const sim::MovingClientInstance& mc = *file.moving_client;
    io::Json agents = io::Json::array();
    for (const sim::AgentPath& agent : mc.agents) agents.push_back(points_to_json(agent.positions));
    io::Json body = io::Json::object();
    body.set("server_speed", mc.server_speed);
    body.set("agent_speed", mc.agent_speed);
    body.set("D", mc.move_cost_weight);
    body.set("start", point_to_json(mc.start));
    body.set("agents", std::move(agents));
    io::Json line = io::Json::object();
    line.set("moving_client", std::move(body));
    line.dump_to(out);
    out.push_back('\n');
  }

  if (file.adversary) {
    io::Json body = io::Json::object();
    body.set("cost", file.adversary->cost);
    body.set("positions", points_to_json(file.adversary->positions));
    io::Json line = io::Json::object();
    line.set("adversary", std::move(body));
    line.dump_to(out);
    out.push_back('\n');
  }

  for (const RecordedRun& run : file.runs) {
    io::Json body = io::Json::object();
    body.set("algorithm", run.algorithm);
    body.set("algo_seed", run.algo_seed);
    body.set("speed_factor", run.speed_factor);
    body.set("policy", sim::policy_name(run.policy));
    body.set("total_cost", run.total_cost);
    body.set("move_cost", run.move_cost);
    body.set("service_cost", run.service_cost);
    body.set("positions", points_to_json(run.positions));
    if (!run.step_costs.empty()) {
      io::Json costs = io::Json::array();
      for (const sim::StepCost& c : run.step_costs)
        costs.push_back(io::Json(io::Json::Array{io::Json(c.move), io::Json(c.service)}));
      body.set("step_costs", std::move(costs));
    }
    io::Json line = io::Json::object();
    line.set("run", std::move(body));
    line.dump_to(out);
    out.push_back('\n');
  }

  io::Json end = io::Json::object();
  end.set("end", true);
  end.set("steps", file.instance.horizon());
  end.set("runs", file.runs.size());
  end.dump_to(out);
  out.push_back('\n');
  return out;
}

TraceFile decode_jsonl(const std::string& bytes, const std::string& origin) {
  // Split into non-empty lines.
  std::vector<std::string_view> lines;
  std::string_view rest(bytes);
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    if (!line.empty()) lines.push_back(line);
    if (nl == std::string_view::npos) break;
    rest.remove_prefix(nl + 1);
  }
  if (lines.empty()) fail(origin, "empty trace file");

  std::size_t cursor = 0;
  auto next_line = [&](const char* what) -> std::string_view {
    if (cursor >= lines.size())
      fail(origin, std::string("truncated: unexpected end of file while reading ") + what);
    return lines[cursor++];
  };
  auto parse_line = [&](const char* what) {
    const std::string_view line = next_line(what);
    try {
      return io::Json::parse(line);
    } catch (const io::JsonError& error) {
      fail(origin, std::string("corrupt ") + what + " line " + std::to_string(cursor) + ": " +
                       error.what());
    }
  };

  const io::Json header = parse_line("header");
  if (const io::Json* format = header.find("format"); !format || format->as_string() != "mobsrv-trace")
    fail(origin, "not a mobsrv trace file (bad or missing \"format\" in header)");
  const std::uint64_t version = header.at("version").as_uint64();
  if (version != kFormatVersion)
    fail(origin, "unsupported trace format version " + std::to_string(version) + " (this build reads version " +
                     std::to_string(kFormatVersion) + ")");

  TraceMeta meta;
  meta.name = header.at("name").as_string();
  meta.source = header.at("source").as_string();
  meta.seed = header.at("seed").as_uint64();

  const int dim = static_cast<int>(header.at("dim").as_int64());
  if (dim < 1 || dim > sim::Point::kMaxDim)
    fail(origin, "header dim " + std::to_string(dim) + " out of range [1, " +
                     std::to_string(sim::Point::kMaxDim) + "]");
  const std::uint64_t horizon = header.at("horizon").as_uint64();
  if (horizon > lines.size())
    fail(origin, "truncated: header announces " + std::to_string(horizon) +
                     " steps but the file has only " + std::to_string(lines.size()) + " lines");
  sim::ModelParams params;
  params.move_cost_weight = header.at("D").as_double();
  params.max_step = header.at("m").as_double();
  const std::string& order = header.at("order").as_string();
  const std::optional<sim::ServiceOrder> parsed_order = sim::parse_order(order);
  if (!parsed_order) throw TraceError("unknown service order \"" + order + "\"");
  params.order = *parsed_order;
  const sim::Point start = point_from_json(header.at("start"), dim, origin, "header start");

  std::vector<sim::RequestBatch> steps;
  steps.reserve(horizon);
  for (std::uint64_t t = 0; t < horizon; ++t) {
    if (cursor >= lines.size())
      fail(origin, "truncated: expected " + std::to_string(horizon) + " batch lines, found " +
                       std::to_string(t));
    const io::Json batch = parse_line("batch");
    steps.push_back(sim::RequestBatch{points_from_json(batch, dim, origin, "request")});
  }

  TraceFile file(std::move(meta), sim::Instance(start, params, std::move(steps)));

  bool saw_end = false;
  while (cursor < lines.size()) {
    const io::Json line = parse_line("trailer");
    const io::Json::Object& obj = line.as_object();
    if (obj.empty()) fail(origin, "corrupt trailer: empty object");
    const std::string& key = obj.front().first;
    const io::Json& body = obj.front().second;
    if (key == "end") {
      if (body.as_bool() != true) fail(origin, "corrupt end marker");
      if (line.at("steps").as_uint64() != horizon)
        fail(origin, "corrupt end marker: step count disagrees with header");
      const std::uint64_t runs = line.at("runs").as_uint64();
      if (runs != file.runs.size())
        fail(origin, "corrupt end marker: announces " + std::to_string(runs) + " runs, found " +
                         std::to_string(file.runs.size()));
      saw_end = true;
      if (cursor != lines.size()) fail(origin, "trailing data after end marker");
      break;
    }
    if (key == "moving_client") {
      sim::MovingClientInstance mc;
      mc.server_speed = body.at("server_speed").as_double();
      mc.agent_speed = body.at("agent_speed").as_double();
      mc.move_cost_weight = body.at("D").as_double();
      mc.start = point_from_json(body.at("start"), dim, origin, "moving_client start");
      for (const io::Json& path : body.at("agents").as_array())
        mc.agents.push_back(
            sim::AgentPath{points_from_json(path, dim, origin, "moving_client path")});
      file.moving_client = std::move(mc);
      continue;
    }
    if (key == "adversary") {
      AdversaryInfo adv;
      adv.cost = body.at("cost").as_double();
      adv.positions = sim::TrajectoryStore::from_points(
          points_from_json(body.at("positions"), dim, origin, "adversary position"));
      file.adversary = std::move(adv);
      continue;
    }
    if (key == "run") {
      RecordedRun run;
      run.algorithm = body.at("algorithm").as_string();
      run.algo_seed = body.at("algo_seed").as_uint64();
      run.speed_factor = body.at("speed_factor").as_double();
      const std::string& policy = body.at("policy").as_string();
      const std::optional<sim::SpeedLimitPolicy> parsed_policy = sim::parse_policy(policy);
      if (!parsed_policy) throw TraceError("unknown speed-limit policy \"" + policy + "\"");
      run.policy = *parsed_policy;
      run.total_cost = body.at("total_cost").as_double();
      run.move_cost = body.at("move_cost").as_double();
      run.service_cost = body.at("service_cost").as_double();
      run.positions = points_from_json(body.at("positions"), dim, origin, "run position");
      if (const io::Json* costs = body.find("step_costs")) {
        for (const io::Json& c : costs->as_array()) {
          const io::Json::Array& pair = c.as_array();
          if (pair.size() != 2) fail(origin, "corrupt step_costs entry");
          run.step_costs.push_back(sim::StepCost{pair[0].as_double(), pair[1].as_double()});
        }
      }
      file.runs.push_back(std::move(run));
      continue;
    }
    fail(origin, "unknown trailer record \"" + key + "\"");
  }
  if (!saw_end)
    fail(origin, "truncated: missing end marker (file was cut off after the batch lines)");
  return file;
}

// ---------------------------------------------------------------------------
// Binary codec: length-prefixed little-endian sections.
// ---------------------------------------------------------------------------

using io::put_f64, io::put_str, io::put_u32, io::put_u64, io::put_u8;

void put_point(std::string& out, const sim::Point& p) {
  for (int i = 0; i < p.dim(); ++i) put_f64(out, p[i]);
}

void put_points(std::string& out, const std::vector<sim::Point>& points) {
  put_u64(out, points.size());
  for (const sim::Point& p : points) put_point(out, p);
}

void put_points(std::string& out, const sim::TrajectoryStore& points) {
  put_u64(out, points.size());
  for (std::size_t t = 0; t < points.size(); ++t) put_point(out, points[t]);
}

void put_section(std::string& out, std::uint8_t tag, const std::string& payload) {
  put_u8(out, tag);
  put_u64(out, payload.size());
  out += payload;
}

std::string encode_binary(const TraceFile& file) {
  std::string out;
  out.append(kMagic);
  put_u32(out, kFormatVersion);

  std::string payload;
  put_str(payload, file.meta.name);
  put_str(payload, file.meta.source);
  put_u64(payload, file.meta.seed);
  put_section(out, kSectionMeta, payload);

  payload.clear();
  const sim::Instance& inst = file.instance;
  put_u8(payload, static_cast<std::uint8_t>(inst.dim()));
  put_u8(payload, inst.params().order == sim::ServiceOrder::kMoveThenServe ? 0 : 1);
  put_f64(payload, inst.params().move_cost_weight);
  put_f64(payload, inst.params().max_step);
  put_point(payload, inst.start());
  put_u64(payload, inst.horizon());
  for (std::size_t t = 0; t < inst.horizon(); ++t) {
    const sim::BatchView batch = inst.step(t);
    put_u32(payload, static_cast<std::uint32_t>(batch.size()));
    for (const sim::Point v : batch) put_point(payload, v);
  }
  put_section(out, kSectionInstance, payload);

  if (file.moving_client) {
    const sim::MovingClientInstance& mc = *file.moving_client;
    payload.clear();
    put_f64(payload, mc.server_speed);
    put_f64(payload, mc.agent_speed);
    put_f64(payload, mc.move_cost_weight);
    put_point(payload, mc.start);
    put_u32(payload, static_cast<std::uint32_t>(mc.agents.size()));
    put_u64(payload, mc.horizon());
    for (const sim::AgentPath& agent : mc.agents)
      for (const sim::Point& p : agent.positions) put_point(payload, p);
    put_section(out, kSectionMovingClient, payload);
  }

  if (file.adversary) {
    payload.clear();
    put_f64(payload, file.adversary->cost);
    put_points(payload, file.adversary->positions);
    put_section(out, kSectionAdversary, payload);
  }

  for (const RecordedRun& run : file.runs) {
    payload.clear();
    put_str(payload, run.algorithm);
    put_u64(payload, run.algo_seed);
    put_f64(payload, run.speed_factor);
    put_u8(payload, run.policy == sim::SpeedLimitPolicy::kThrow ? 0 : 1);
    put_f64(payload, run.total_cost);
    put_f64(payload, run.move_cost);
    put_f64(payload, run.service_cost);
    put_points(payload, run.positions);
    put_u8(payload, run.step_costs.empty() ? 0 : 1);
    if (!run.step_costs.empty()) {
      put_u64(payload, run.step_costs.size());
      for (const sim::StepCost& c : run.step_costs) {
        put_f64(payload, c.move);
        put_f64(payload, c.service);
      }
    }
    put_section(out, kSectionRun, payload);
  }

  put_u8(out, kSectionEnd);
  put_u64(out, 0);
  return out;
}

sim::Point read_point(io::ByteReader& r, int dim) {
  sim::Point p(dim);
  for (int i = 0; i < dim; ++i) p[i] = r.f64();
  return p;
}

std::vector<sim::Point> read_points(io::ByteReader& r, int dim) {
  const std::uint64_t n = r.count("point", 8 * static_cast<std::size_t>(dim));
  std::vector<sim::Point> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(read_point(r, dim));
  return out;
}

TraceFile decode_binary(std::string_view bytes, const std::string& origin) {
  if (!bytes.starts_with(kMagic)) fail(origin, "not a mobsrv binary trace file (bad magic)");
  io::ByteReader r(bytes, origin, fail);
  r.take(kMagic.size());
  r.set_context("version");
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion)
    fail(origin, "unsupported trace format version " + std::to_string(version) +
                     " (this build reads version " + std::to_string(kFormatVersion) + ")");

  std::optional<TraceMeta> meta;
  std::optional<TraceFile> file;
  int dim = 0;
  bool saw_end = false;

  while (!saw_end) {
    r.set_context("section header");
    const std::uint8_t tag = r.u8();
    const std::uint64_t size = r.u64();
    // The declared size feeds every downstream plausibility guard, so it
    // must itself be bounded by what the file actually holds.
    if (size > r.remaining())
      fail(origin, "truncated: section (tag " + std::to_string(tag) + ") declares " +
                       std::to_string(size) + " bytes but only " +
                       std::to_string(r.remaining()) + " remain");
    const std::size_t section_start = r.pos();
    switch (tag) {
      case kSectionMeta: {
        r.set_context("meta section");
        TraceMeta m;
        m.name = r.str();
        m.source = r.str();
        m.seed = r.u64();
        meta = std::move(m);
        break;
      }
      case kSectionInstance: {
        r.set_context("instance section");
        if (!meta) fail(origin, "corrupt file: instance section before meta section");
        dim = r.u8();
        if (dim < 1 || dim > sim::Point::kMaxDim)
          fail(origin, "instance dim " + std::to_string(dim) + " out of range [1, " +
                           std::to_string(sim::Point::kMaxDim) + "]");
        sim::ModelParams params;
        params.order = r.u8() == 0 ? sim::ServiceOrder::kMoveThenServe
                                   : sim::ServiceOrder::kServeThenMove;
        params.move_cost_weight = r.f64();
        params.max_step = r.f64();
        const sim::Point start = read_point(r, dim);
        const std::uint64_t horizon = r.count("horizon", 4);
        std::vector<sim::RequestBatch> steps;
        steps.reserve(horizon);
        for (std::uint64_t t = 0; t < horizon; ++t) {
          const std::uint32_t nreq = r.u32();
          // Each request needs 8·dim payload bytes; a larger count is a
          // corrupt field, not a short file — reject before reserving.
          if (nreq > size / 8 + 1)
            fail(origin,
                 "corrupt instance section: implausible batch size " + std::to_string(nreq));
          sim::RequestBatch batch;
          batch.requests.reserve(nreq);
          for (std::uint32_t i = 0; i < nreq; ++i) batch.requests.push_back(read_point(r, dim));
          steps.push_back(std::move(batch));
        }
        file.emplace(*meta, sim::Instance(start, params, std::move(steps)));
        break;
      }
      case kSectionMovingClient: {
        r.set_context("moving_client section");
        if (!file) fail(origin, "corrupt file: moving_client section before instance section");
        sim::MovingClientInstance mc;
        mc.server_speed = r.f64();
        mc.agent_speed = r.f64();
        mc.move_cost_weight = r.f64();
        mc.start = read_point(r, dim);
        const std::uint32_t nagents = r.u32();
        const std::uint64_t horizon = r.u64();
        if (nagents > size / 8 + 1 || horizon > size / 8 + 1)
          fail(origin, "corrupt moving_client section: implausible shape " +
                           std::to_string(nagents) + " agents x " + std::to_string(horizon) +
                           " rounds");
        for (std::uint32_t a = 0; a < nagents; ++a) {
          sim::AgentPath path;
          path.positions.reserve(horizon);
          for (std::uint64_t t = 0; t < horizon; ++t) path.positions.push_back(read_point(r, dim));
          mc.agents.push_back(std::move(path));
        }
        file->moving_client = std::move(mc);
        break;
      }
      case kSectionAdversary: {
        r.set_context("adversary section");
        if (!file) fail(origin, "corrupt file: adversary section before instance section");
        AdversaryInfo adv;
        adv.cost = r.f64();
        adv.positions = sim::TrajectoryStore::from_points(read_points(r, dim));
        file->adversary = std::move(adv);
        break;
      }
      case kSectionRun: {
        r.set_context("run section");
        if (!file) fail(origin, "corrupt file: run section before instance section");
        RecordedRun run;
        run.algorithm = r.str();
        run.algo_seed = r.u64();
        run.speed_factor = r.f64();
        run.policy =
            r.u8() == 0 ? sim::SpeedLimitPolicy::kThrow : sim::SpeedLimitPolicy::kClamp;
        run.total_cost = r.f64();
        run.move_cost = r.f64();
        run.service_cost = r.f64();
        run.positions = read_points(r, dim);
        if (r.u8() != 0) {
          const std::uint64_t n = r.count("step", 16);
          run.step_costs.reserve(n);
          for (std::uint64_t i = 0; i < n; ++i) {
            const double move = r.f64();
            const double service = r.f64();
            run.step_costs.push_back(sim::StepCost{move, service});
          }
        }
        file->runs.push_back(std::move(run));
        break;
      }
      case kSectionEnd:
        if (size != 0) fail(origin, "corrupt end section");
        saw_end = true;
        break;
      default:
        fail(origin, "unknown section tag " + std::to_string(tag) +
                         " (corrupt file or newer format)");
    }
    if (tag != kSectionEnd && r.pos() - section_start != size)
      fail(origin, "corrupt section (tag " + std::to_string(tag) + "): payload declares " +
                       std::to_string(size) + " bytes, decoder consumed " +
                       std::to_string(r.pos() - section_start));
  }
  if (r.remaining() != 0) fail(origin, "trailing data after end section");
  if (!file) fail(origin, "truncated: file ends before the instance section");
  return std::move(*file);
}

/// Shared invariants enforced on BOTH directions: decoding rejects corrupt
/// files, and encoding refuses to write a file that could never be read
/// back (e.g. unequal agent path lengths).
void validate_trace_file(const TraceFile& file, const std::string& origin) {
  const std::size_t horizon = file.instance.horizon();
  if (file.moving_client) {
    if (file.moving_client->horizon() != horizon)
      fail(origin, "moving_client horizon " + std::to_string(file.moving_client->horizon()) +
                       " does not match instance horizon " + std::to_string(horizon));
    try {
      file.moving_client->validate();
    } catch (const ContractViolation& error) {
      fail(origin, std::string("invalid moving_client section: ") + error.what());
    }
  }
  for (const RecordedRun& run : file.runs) {
    if (!run.positions.empty() && run.positions.size() != horizon + 1)
      fail(origin, "run \"" + run.algorithm + "\" has " + std::to_string(run.positions.size()) +
                       " positions, expected " + std::to_string(horizon + 1));
    if (!run.step_costs.empty() && run.step_costs.size() != horizon)
      fail(origin, "run \"" + run.algorithm + "\" has " + std::to_string(run.step_costs.size()) +
                       " step costs, expected " + std::to_string(horizon));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

void fail(const std::string& origin, const std::string& message) {
  throw TraceError(origin + ": " + message);
}

std::string to_string(Codec codec) { return codec == Codec::kJsonl ? "jsonl" : "binary"; }

std::string extension(Codec codec) { return codec == Codec::kJsonl ? ".jsonl" : ".mtb"; }

Codec codec_from_name(const std::string& name) {
  if (name == "jsonl") return Codec::kJsonl;
  if (name == "binary") return Codec::kBinary;
  throw TraceError("unknown codec \"" + name + "\" (expected jsonl or binary)");
}

Codec codec_for_path(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  if (ext == ".jsonl") return Codec::kJsonl;
  if (ext == ".mtb") return Codec::kBinary;
  throw TraceError(path.string() + ": unknown trace extension \"" + ext +
                   "\" (expected .jsonl or .mtb)");
}

std::string encode_trace(const TraceFile& file, Codec codec) {
  try {
    validate_trace_file(file, "encode");
  } catch (const ContractViolation& error) {
    throw TraceError(std::string("encode: invalid trace contents: ") + error.what());
  }
  return codec == Codec::kJsonl ? encode_jsonl(file) : encode_binary(file);
}

TraceFile decode_trace(const std::string& bytes, const std::string& origin) {
  // Sniff the codec on the first non-whitespace byte, so hand-edited JSONL
  // with a leading newline is still routed to the JSONL decoder.
  const std::size_t first = bytes.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) fail(origin, "empty trace file");
  try {
    TraceFile file =
        bytes[first] == '{' ? decode_jsonl(bytes, origin) : decode_binary(bytes, origin);
    validate_trace_file(file, origin);
    return file;
  } catch (const TraceError&) {
    throw;
  } catch (const io::JsonError& error) {
    fail(origin, std::string("corrupt JSON: ") + error.what());
  } catch (const ContractViolation& error) {
    // Instance/params validation rejected decoded values (e.g. D < 1).
    fail(origin, std::string("invalid trace contents: ") + error.what());
  }
}

void write_trace(const std::filesystem::path& path, const TraceFile& file, Codec codec) {
  const std::string bytes = encode_trace(file, codec);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceError(path.string() + ": cannot open for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw TraceError(path.string() + ": write failed");
}

void write_trace(const std::filesystem::path& path, const TraceFile& file) {
  write_trace(path, file, codec_for_path(path));
}

std::string read_bytes(const std::filesystem::path& path) {
  std::string bytes;
  if (const io::ReadStatus status = io::read_file(path, bytes); status != io::ReadStatus::kOk)
    throw TraceError(path.string() + (status == io::ReadStatus::kCannotOpen
                                          ? ": cannot open (missing file?)"
                                          : ": read failed"));
  return bytes;
}

TraceFile read_trace(const std::filesystem::path& path) {
  return decode_trace(read_bytes(path), path.string());
}

}  // namespace mobsrv::trace
