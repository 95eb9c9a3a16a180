/// \file trace_main.cpp
/// mobsrv_trace — record, replay, inspect, convert, import and batch-replay
/// on-disk workload traces.
///
///   mobsrv_trace list                                     # corpus scenarios
///   mobsrv_trace record  --scenario=N [--seed=S] [--scale=F] [--algos=A,B]
///                        [--speed-factor=X] --out=FILE     # generate + run + save
///   mobsrv_trace replay  --in=FILE|DIR [--quiet]           # verify bit-identically
///   mobsrv_trace inspect --in=FILE [--json]                # describe a trace
///   mobsrv_trace convert --in=FILE --out=FILE              # transcode jsonl <-> mtb
///   mobsrv_trace corpus  --dir=DIR [--seed=S] [--scale=F] [--codec=C]
///                        [--algos=A,B]                     # snapshot every scenario
///   mobsrv_trace batch   --dir=DIR [--algos=A,B] [--threads=N] [--speed-factor=X]
///                        [--json=PATH] [--baseline]        # sharded batch replay
///   mobsrv_trace import  --in=CSV --format=demand|waypoints --out=FILE
///                        [--d=D] [--m=M] [--server-speed=S] [--agent-speed=A]
///   mobsrv_trace checkpoint --in=FILE [--fleet=K] [--algos=A,B] [--at=FRAC]
///                        [--ckpt=PATH] [--threads=N]  # save→restore→verify
///
/// Codecs are chosen by file extension: .jsonl (JSON Lines) or .mtb
/// (binary). Reading sniffs the codec, so any command accepts either.
/// Checkpoint files use their own versioned binary format (.msck).
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/mobsrv.hpp"
#include "io/bytes.hpp"
#include "io/cli.hpp"
#include "serve/snapshot.hpp"
#include "stats/rng.hpp"

namespace {

using namespace mobsrv;

void print_usage(std::ostream& os) {
  os << "usage: mobsrv_trace <command> [flags]\n"
        "commands:\n"
        "  list     print the corpus scenario names\n"
        "  record   --scenario=N [--seed=S] [--scale=F] [--algos=A,B] [--speed-factor=X]\n"
        "           --out=FILE           generate a scenario, run algorithms, save all\n"
        "  replay   --in=FILE|DIR [--quiet]\n"
        "           re-run recorded runs, verify costs bit-identically\n"
        "  inspect  --in=FILE [--json]   describe a trace file\n"
        "  convert  --in=FILE --out=FILE transcode between .jsonl and .mtb\n"
        "  corpus   --dir=DIR [--seed=S] [--scale=F] [--codec=jsonl|binary] [--algos=A,B]\n"
        "           snapshot every generator into DIR (optionally with recorded runs)\n"
        "  batch    --dir=DIR [--algos=A,B] [--threads=N] [--speed-factor=X]\n"
        "           [--json=PATH] [--baseline]   sharded batch replay + summary\n"
        "  import   --in=CSV --format=demand|waypoints --out=FILE [--d=D] [--m=M]\n"
        "           [--server-speed=S] [--agent-speed=A]   import an external trace\n"
        "  checkpoint --in=FILE [--fleet=K] [--algos=A,B] [--at=FRAC] [--ckpt=PATH]\n"
        "           [--threads=N]   run the trace's workload to FRAC of its horizon,\n"
        "           checkpoint the multiplexer to disk, restore into a fresh one,\n"
        "           drain, and verify bit-identity against an uninterrupted run\n"
        "  chaos    --in=FILE [--stride=N] [--flips=N] [--seed=S] [--quiet]\n"
        "           torture an MSRVSS2 snapshot chain: truncate at every offset,\n"
        "           flip bits, duplicate/reorder/drop segments; every mutation must\n"
        "           load bit-identically to a complete prefix or fail loudly\n";
}

std::vector<std::string> parse_algos(const std::string& value) { return io::split_list(value); }

std::string require_flag(const io::Args& args, const std::string& name) {
  const std::string value = args.get_string(name, "");
  if (value.empty()) throw ContractViolation("missing required flag --" + name);
  return value;
}

/// Rejects typo'd flags up front — a silently ignored `--sede=7` would
/// record seed 0 while the user believes the trace encodes seed 7.
void reject_unknown_flags(const io::Args& args, const std::string& command,
                          std::initializer_list<const char*> known) {
  for (const std::string& name : args.flag_names()) {
    if (name == "help") continue;
    bool ok = false;
    for (const char* flag : known) ok = ok || name == flag;
    if (!ok)
      throw ContractViolation("unknown flag --" + name + " for command '" + command + "'");
  }
}

/// Appends recorded runs of the named algorithms (default: all registered).
void append_runs(trace::TraceFile& file, const std::vector<std::string>& algos,
                 double speed_factor, std::uint64_t seed) {
  const std::vector<std::string> names = algos.empty() ? alg::algorithm_names() : algos;
  for (const std::string& name : names)
    file.runs.push_back(trace::record_run(file.instance, name, seed, speed_factor));
}

int cmd_list() {
  std::cout << "corpus scenarios:\n";
  for (const scenario::Scenario& sc : scenario::generator_starters())
    std::cout << "  " << sc.name << "  —  kind " << sc.kind << ", T = " << sc.params.horizon
              << ", dim " << sc.params.dim << "\n";
  return 0;
}

int cmd_record(const io::Args& args) {
  const std::string scenario = require_flag(args, "scenario");
  const std::string out = require_flag(args, "out");
  const std::uint64_t seed = args.get_uint64("seed", 0);
  const double scale = args.get_double("scale", 1.0);
  const double speed_factor = args.get_double("speed-factor", 1.5);

  trace::TraceFile file = scenario::starter_trace(scenario, seed, scale);
  append_runs(file, parse_algos(args.get_string("algos", "")), speed_factor, seed);
  trace::write_trace(out, file);
  std::cout << "recorded " << file.meta.name << " (T = " << file.instance.horizon() << ", dim "
            << file.instance.dim() << ", " << file.runs.size() << " runs) -> " << out << "\n";
  return 0;
}

int replay_one(const std::filesystem::path& path, bool quiet, std::size_t& checks,
               std::size_t& mismatches) {
  const trace::TraceFile file = trace::read_trace(path);
  const trace::ReplayReport report = trace::replay(file);
  checks += report.outcomes.size();
  for (const trace::ReplayOutcome& o : report.outcomes) {
    if (!o.match) ++mismatches;
    if (quiet && o.match) continue;
    std::cout << "  " << path.filename().string() << "  " << o.algorithm << ": recorded "
              << io::format_double(o.recorded_total, 17) << ", replayed "
              << io::format_double(o.replayed_total, 17) << " → "
              << (o.match ? "MATCH" : "MISMATCH") << "\n";
  }
  if (report.outcomes.empty() && !quiet)
    std::cout << "  " << path.filename().string() << ": no recorded runs (nothing to verify)\n";
  return report.all_match() ? 0 : 1;
}

int cmd_replay(const io::Args& args) {
  const std::string in = require_flag(args, "in");
  const bool quiet = args.get_bool("quiet", false);
  std::vector<std::filesystem::path> files;
  if (std::filesystem::is_directory(in))
    files = trace::list_trace_files(in);
  else
    files.push_back(in);

  std::size_t checks = 0, mismatches = 0;
  int status = 0;
  for (const std::filesystem::path& path : files)
    status |= replay_one(path, quiet, checks, mismatches);
  std::cout << "replay: " << files.size() << " file(s), " << checks << " recorded run(s), "
            << mismatches << " mismatch(es) → " << (status == 0 ? "OK" : "FAILED") << "\n";
  return status;
}

io::Json inspect_json(const std::filesystem::path& path, const trace::TraceFile& file) {
  io::Json root = io::Json::object();
  root.set("path", path.string());
  root.set("name", file.meta.name);
  root.set("source", file.meta.source);
  root.set("seed", file.meta.seed);
  root.set("dim", file.instance.dim());
  root.set("horizon", file.instance.horizon());
  root.set("requests", file.instance.total_requests());
  root.set("D", file.instance.params().move_cost_weight);
  root.set("m", file.instance.params().max_step);
  root.set("order", sim::order_name(file.instance.params().order));
  root.set("has_moving_client", file.moving_client.has_value());
  if (file.moving_client) root.set("agents", file.moving_client->agents.size());
  root.set("has_adversary", file.adversary.has_value());
  if (file.adversary) root.set("adversary_cost", file.adversary->cost);
  io::Json runs = io::Json::array();
  for (const trace::RecordedRun& run : file.runs) {
    io::Json r = io::Json::object();
    r.set("algorithm", run.algorithm);
    r.set("algo_seed", run.algo_seed);
    r.set("speed_factor", run.speed_factor);
    r.set("total_cost", run.total_cost);
    r.set("move_cost", run.move_cost);
    r.set("service_cost", run.service_cost);
    runs.push_back(std::move(r));
  }
  root.set("runs", std::move(runs));
  return root;
}

int cmd_inspect(const io::Args& args) {
  const std::filesystem::path in = require_flag(args, "in");
  const trace::TraceFile file = trace::read_trace(in);
  if (args.get_bool("json", false)) {
    std::cout << inspect_json(in, file).dump() << "\n";
    return 0;
  }
  std::cout << in.string() << ":\n"
            << "  scenario : " << file.meta.name << " (source " << file.meta.source << ", seed "
            << file.meta.seed << ")\n"
            << "  instance : dim " << file.instance.dim() << ", T = " << file.instance.horizon()
            << ", " << file.instance.total_requests() << " requests, D = "
            << io::format_double(file.instance.params().move_cost_weight) << ", m = "
            << io::format_double(file.instance.params().max_step) << ", "
            << sim::order_name(file.instance.params().order) << "\n";
  if (file.moving_client)
    std::cout << "  moving client: " << file.moving_client->agents.size()
              << " agent(s), agent speed "
              << io::format_double(file.moving_client->agent_speed) << "\n";
  if (file.adversary)
    std::cout << "  adversary: feasible solution of cost "
              << io::format_double(file.adversary->cost, 6) << "\n";
  for (const trace::RecordedRun& run : file.runs)
    std::cout << "  run: " << run.algorithm << " @ (1+δ) = "
              << io::format_double(run.speed_factor) << " → total "
              << io::format_double(run.total_cost, 6) << " (move "
              << io::format_double(run.move_cost, 6) << " + service "
              << io::format_double(run.service_cost, 6) << ")\n";
  return 0;
}

int cmd_convert(const io::Args& args) {
  const std::filesystem::path in = require_flag(args, "in");
  const std::filesystem::path out = require_flag(args, "out");
  const trace::TraceFile file = trace::read_trace(in);
  trace::write_trace(out, file);
  std::cout << "converted " << in.string() << " -> " << out.string() << " ("
            << trace::to_string(trace::codec_for_path(out)) << ")\n";
  return 0;
}

int cmd_corpus(const io::Args& args) {
  const std::string dir = require_flag(args, "dir");
  const std::uint64_t seed = args.get_uint64("seed", 0);
  const double scale = args.get_double("scale", 1.0);
  const std::string codec_name = args.get_string("codec", "jsonl");
  const std::vector<std::string> algos = parse_algos(args.get_string("algos", ""));
  const double speed_factor = args.get_double("speed-factor", 1.5);

  trace::RecorderOptions rec_options;
  rec_options.dir = dir;
  rec_options.codec = trace::codec_from_name(codec_name);
  trace::Recorder recorder(rec_options);
  const std::vector<std::filesystem::path> paths =
      scenario::write_corpus(recorder, seed, scale, algos, speed_factor);
  for (const std::filesystem::path& path : paths) std::cout << "  " << path.string() << "\n";
  std::cout << "corpus: wrote " << paths.size() << " scenario files to " << dir << "\n";
  return 0;
}

int cmd_batch(const io::Args& args) {
  const std::string dir = require_flag(args, "dir");
  const int threads_raw = args.get_int("threads", 0);
  if (threads_raw < 0)
    throw ContractViolation("flag --threads must be >= 0 (0 = hardware concurrency)");
  const auto threads = static_cast<unsigned>(threads_raw);
  trace::BatchOptions options;
  options.algorithms = parse_algos(args.get_string("algos", ""));
  options.speed_factor = args.get_double("speed-factor", 1.5);

  const std::vector<std::filesystem::path> files = trace::list_trace_files(dir);
  par::ThreadPool pool(threads);
  const trace::BatchResult result = trace::run_batch(pool, files, options);
  trace::print_batch_summary(std::cout, dir, result, options, pool.size());

  if (args.get_bool("baseline", false)) {
    // Sequential baseline for the sharding speedup measurement.
    par::ThreadPool sequential(1);
    const trace::BatchResult base = trace::run_batch(sequential, files, options);
    std::cout << "  sequential baseline: " << io::format_double(base.wall_seconds, 3)
              << " s → speedup " << io::format_double(base.wall_seconds / result.wall_seconds, 3)
              << "× on " << pool.size() << " threads\n";
  }

  if (const std::string json_path = args.get_string("json", ""); !json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::cerr << "mobsrv_trace: cannot open --json path '" << json_path << "'\n";
      return 1;
    }
    out << trace::batch_to_json(result).dump() << "\n";
    out.flush();
    if (!out) {
      std::cerr << "mobsrv_trace: writing --json path '" << json_path << "' failed\n";
      return 1;
    }
  }
  return result.replay_mismatches == 0 ? 0 : 1;
}

int cmd_import(const io::Args& args) {
  const std::filesystem::path in = require_flag(args, "in");
  const std::string out = require_flag(args, "out");
  const std::string format = require_flag(args, "format");

  trace::TraceFile file = [&] {
    if (format == "demand") {
      // Flags that only the waypoints format consumes must not be silently
      // dropped — the written trace would encode a different model than
      // the user asked for.
      for (const char* flag : {"server-speed", "agent-speed"})
        if (args.has(flag))
          throw ContractViolation(std::string("flag --") + flag +
                                  " applies only to --format=waypoints (demand uses --m)");
      trace::DemandImportOptions options;
      options.move_cost_weight = args.get_double("d", 1.0);
      options.max_step = args.get_double("m", 1.0);
      return trace::import_demand(in, options);
    }
    if (format == "waypoints") {
      if (args.has("m"))
        throw ContractViolation(
            "flag --m applies only to --format=demand (waypoints uses --server-speed)");
      trace::WaypointImportOptions options;
      options.move_cost_weight = args.get_double("d", 1.0);
      options.server_speed = args.get_double("server-speed", 1.0);
      options.agent_speed = args.get_double("agent-speed", 1.0);
      return trace::import_waypoints(in, options);
    }
    throw ContractViolation("flag --format expects demand or waypoints");
  }();

  trace::write_trace(out, file);
  std::cout << "imported " << in.string() << " -> " << out << " (T = " << file.instance.horizon()
            << ", dim " << file.instance.dim() << ", " << file.instance.total_requests()
            << " requests)\n";
  return 0;
}

/// End-to-end checkpoint proof over a recorded workload: run every
/// requested algorithm as a multiplexed session (fleet size --fleet), stop
/// at --at of the horizon, write the checkpoint THROUGH the on-disk codec,
/// restore it into a fresh multiplexer, drain both, and require exact
/// equality with a never-interrupted reference. Exit 0 only on bit-identity.
int cmd_checkpoint(const io::Args& args) {
  const std::filesystem::path in = require_flag(args, "in");
  const int fleet_raw = args.get_int("fleet", 1);
  if (fleet_raw < 1) throw ContractViolation("flag --fleet must be >= 1");
  const auto fleet = static_cast<std::size_t>(fleet_raw);
  const double at = args.get_double("at", 0.5);
  if (at <= 0.0 || at >= 1.0) throw ContractViolation("flag --at must be in (0, 1)");
  const int threads_raw = args.get_int("threads", 2);
  if (threads_raw < 0)
    throw ContractViolation("flag --threads must be >= 0 (0 = hardware concurrency)");
  const std::string ckpt_path = args.get_string("ckpt", "checkpoint.msck");

  const trace::TraceFile file = trace::read_trace(in);
  const auto workload = std::make_shared<const sim::Instance>(file.instance);
  // Default roster: everything that can drive the requested fleet size.
  std::vector<std::string> algos = parse_algos(args.get_string("algos", ""));
  if (algos.empty()) algos = fleet == 1 ? alg::fleet_algorithm_names() : alg::fleet_native_names();

  auto populate = [&](core::SessionMultiplexer& mux) {
    for (std::size_t a = 0; a < algos.size(); ++a) {
      core::SessionSpec spec;
      spec.workload = workload;
      spec.algorithm = algos[a];
      spec.algo_seed = 1000 + a;
      spec.speed_factor = 1.5;
      spec.fleet_size = fleet;
      if (fleet > 1) spec.starts = ext::spread_starts(*workload, static_cast<int>(fleet), 2.0);
      spec.tenant = algos[a] + "@k" + std::to_string(fleet);
      mux.add(std::move(spec));
    }
  };

  par::ThreadPool pool(static_cast<unsigned>(threads_raw));

  core::SessionMultiplexer reference(pool);
  populate(reference);
  reference.drain();

  core::SessionMultiplexer interrupted(pool);
  populate(interrupted);
  const auto cut = static_cast<std::size_t>(at * static_cast<double>(workload->horizon()));
  if (cut > 0) interrupted.step(cut);
  trace::write_checkpoint(ckpt_path, interrupted.checkpoint());

  core::SessionMultiplexer restored(pool);
  populate(restored);
  restored.restore(trace::read_checkpoint(ckpt_path));
  restored.drain();

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < restored.size(); ++i) {
    const core::SessionStats a = reference.stats(i);
    const core::SessionStats b = restored.stats(i);
    const bool match = a.total_cost == b.total_cost && a.move_cost == b.move_cost &&
                       a.service_cost == b.service_cost && a.positions == b.positions &&
                       a.steps == b.steps;
    if (!match) ++mismatches;
    std::cout << "  " << a.tenant << ": uninterrupted "
              << io::format_double(a.total_cost, 17) << ", checkpointed+restored "
              << io::format_double(b.total_cost, 17) << " → "
              << (match ? "MATCH" : "MISMATCH") << "\n";
  }
  std::cout << "checkpoint: " << restored.size() << " session(s), fleet size " << fleet
            << ", cut at step " << cut << "/" << workload->horizon() << ", file " << ckpt_path
            << " (" << std::filesystem::file_size(ckpt_path) << " bytes), " << mismatches
            << " mismatch(es) → " << (mismatches == 0 ? "OK" : "FAILED") << "\n";
  return mismatches == 0 ? 0 : 1;
}

/// The snapshot torture harness. Mutates an MSRVSS2 segment chain —
/// truncation at every byte offset, single-bit flips, duplicated /
/// reordered / dropped segments — and drives every mutant through the
/// production reader (serve::read_snapshot_bytes). The contract under test
/// (docs/SERVICE.md): a torn TAIL silently resumes from the last complete
/// segment, bit-identically; every other corruption fails loudly with a
/// TraceError; nothing ever crashes (CI runs this under asan/ubsan).
int cmd_chaos(const io::Args& args) {
  const std::filesystem::path in = require_flag(args, "in");
  const int stride_raw = args.get_int("stride", 1);
  if (stride_raw < 1) throw ContractViolation("flag --stride must be >= 1");
  const auto stride = static_cast<std::size_t>(stride_raw);
  const std::uint64_t flips = args.get_uint64("flips", 64);
  const std::uint64_t seed = args.get_uint64("seed", 0);
  const bool quiet = args.get_bool("quiet", false);

  std::string bytes;
  if (io::read_file(in, bytes) != io::ReadStatus::kOk)
    throw ContractViolation("cannot open --in file: " + in.string());

  static constexpr char kMagic[] = {'M', 'S', 'R', 'V', 'S', 'S', '2', '\n'};
  constexpr std::size_t kHeader = sizeof(kMagic) + 4;  // magic + u32 version
  constexpr std::size_t kSegHeader = 1 + 8 + 4;        // tag + u64 size + u32 crc
  if (bytes.size() < kHeader || std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    throw ContractViolation(in.string() +
                            " is not an MSRVSS2 snapshot chain (run mobsrv_serve with "
                            "--snapshot and a `checkpoint` frame to produce one)");

  // Complete-segment boundaries: every offset where the file prefix is a
  // whole chain. Parsed from the raw framing, NOT via the reader — the
  // harness must not trust the code it is torturing.
  std::vector<std::size_t> boundaries;
  std::size_t pos = kHeader;
  while (bytes.size() - pos >= kSegHeader) {
    std::uint64_t payload = 0;
    std::memcpy(&payload, bytes.data() + pos + 1, 8);
    if (payload > bytes.size() - pos - kSegHeader) break;
    pos += kSegHeader + static_cast<std::size_t>(payload);
    boundaries.push_back(pos);
  }
  if (boundaries.empty()) throw ContractViolation(in.string() + " holds no complete segment");

  // The reference states: what each complete prefix merges to, canonically
  // re-encoded so states compare as strings.
  std::vector<std::string> prefix_states;
  prefix_states.reserve(boundaries.size());
  for (const std::size_t boundary : boundaries)
    prefix_states.push_back(
        serve::encode_snapshot(serve::read_snapshot_bytes(bytes.substr(0, boundary), "prefix")));

  std::size_t checks = 0;
  std::size_t failures = 0;
  auto report = [&](const std::string& what, const std::string& why) {
    ++failures;
    if (!quiet && failures <= 20) std::cout << "  FAIL " << what << ": " << why << "\n";
  };

  // 1) Truncation sweep. A prefix holding >= 1 complete segment MUST load
  //    to exactly that prefix's state (the torn tail is dropped silently);
  //    a shorter prefix MUST fail loudly.
  for (std::size_t len = 0; len < bytes.size(); len += stride) {
    ++checks;
    std::ptrdiff_t idx = -1;
    for (std::size_t i = 0; i < boundaries.size(); ++i)
      if (boundaries[i] <= len) idx = static_cast<std::ptrdiff_t>(i);
    const std::string what = "truncate@" + std::to_string(len);
    try {
      const std::string got =
          serve::encode_snapshot(serve::read_snapshot_bytes(bytes.substr(0, len), "chaos"));
      if (idx < 0)
        report(what, "loaded from a chain with no complete segment");
      else if (got != prefix_states[static_cast<std::size_t>(idx)])
        report(what, "loaded state differs from the complete-prefix state");
    } catch (const trace::TraceError& error) {
      if (idx >= 0) report(what, std::string("torn tail failed loudly: ") + error.what());
    } catch (const std::exception& error) {
      report(what, std::string("wrong exception type: ") + error.what());
    }
  }

  // 2) Bit flips. CRC-32 catches every single-bit payload error, so a flip
  //    either fails loudly or (size/tag-field flips that tear the tail)
  //    loads to SOME complete prefix's state — never to anything else.
  auto flip_check = [&](std::size_t offset, unsigned bit) {
    ++checks;
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(static_cast<unsigned char>(mutated[offset]) ^ (1u << bit));
    const std::string what = "bitflip@" + std::to_string(offset) + "." + std::to_string(bit);
    try {
      const std::string got =
          serve::encode_snapshot(serve::read_snapshot_bytes(mutated, "chaos"));
      bool prefix = false;
      for (const std::string& state : prefix_states) prefix = prefix || state == got;
      if (!prefix) report(what, "loaded to a state no complete prefix produces");
    } catch (const trace::TraceError&) {
      // loud rejection is the contract for real corruption
    } catch (const std::exception& error) {
      report(what, std::string("wrong exception type: ") + error.what());
    }
  };
  for (std::size_t offset = 0; offset < bytes.size(); offset += stride)
    flip_check(offset, static_cast<unsigned>(offset % 8));
  stats::Rng rng(stats::mix_keys({seed, stats::hash_name("chaos")}));
  for (std::uint64_t i = 0; i < flips; ++i)
    flip_check(static_cast<std::size_t>(
                   rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1)),
               static_cast<unsigned>(rng.uniform_int(0, 7)));

  // 3) Segment surgery: duplicated, adjacent-swapped and dropped segments.
  //    Every CRC still matches, so the reader sees a syntactically valid
  //    chain — it must either merge it cleanly or reject the inconsistency
  //    (delta before base, double-open, close of a never-open slot) with a
  //    TraceError. The only failure is a crash or a foreign exception.
  std::vector<std::pair<std::size_t, std::size_t>> segments;
  {
    std::size_t start = kHeader;
    for (const std::size_t boundary : boundaries) {
      segments.emplace_back(start, boundary);
      start = boundary;
    }
  }
  auto rebuild = [&](const std::vector<std::size_t>& order) {
    std::string out = bytes.substr(0, kHeader);
    for (const std::size_t s : order)
      out += bytes.substr(segments[s].first, segments[s].second - segments[s].first);
    return out;
  };
  auto surgery_check = [&](const std::vector<std::size_t>& order, const std::string& what) {
    ++checks;
    try {
      (void)serve::read_snapshot_bytes(rebuild(order), "chaos");
    } catch (const trace::TraceError&) {
    } catch (const std::exception& error) {
      report(what, std::string("wrong exception type: ") + error.what());
    }
  };
  const std::size_t n = segments.size();
  std::vector<std::size_t> identity(n);
  for (std::size_t i = 0; i < n; ++i) identity[i] = i;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> order = identity;
    order.insert(order.begin() + static_cast<std::ptrdiff_t>(i), i);
    surgery_check(order, "dup@" + std::to_string(i));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::vector<std::size_t> order = identity;
    std::swap(order[i], order[i + 1]);
    surgery_check(order, "swap@" + std::to_string(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> order;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) order.push_back(j);
    surgery_check(order, "drop@" + std::to_string(i));
  }

  std::cout << "chaos: " << in.string() << " (" << bytes.size() << " bytes, "
            << boundaries.size() << " segment(s), stride " << stride << "), " << checks
            << " mutation(s), " << failures << " failure(s) → "
            << (failures == 0 ? "OK" : "FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  if (args.get_bool("help", false) || args.positionals().empty()) {
    print_usage(args.positionals().empty() && !args.has("help") ? std::cerr : std::cout);
    return args.positionals().empty() && !args.has("help") ? 2 : 0;
  }
  const std::string command = args.positionals().front();
  // run_cli maps ContractViolation — missing/unknown/malformed flags from
  // the io::Args getters and the helpers above — onto exit 2, and every
  // other failure (unreadable trace, codec error) onto exit 1. Before the
  // shared helper this tool's catch-all turned malformed numeric flag
  // values ("--seed=abc") into exit 1, unlike the other binaries.
  return io::run_cli("mobsrv_trace", nullptr, [&]() -> int {
    if (command == "list") {
      reject_unknown_flags(args, command, {});
      return cmd_list();
    }
    if (command == "record") {
      reject_unknown_flags(args, command,
                           {"scenario", "seed", "scale", "algos", "speed-factor", "out"});
      return cmd_record(args);
    }
    if (command == "replay") {
      reject_unknown_flags(args, command, {"in", "quiet"});
      return cmd_replay(args);
    }
    if (command == "inspect") {
      reject_unknown_flags(args, command, {"in", "json"});
      return cmd_inspect(args);
    }
    if (command == "convert") {
      reject_unknown_flags(args, command, {"in", "out"});
      return cmd_convert(args);
    }
    if (command == "corpus") {
      reject_unknown_flags(args, command,
                           {"dir", "seed", "scale", "codec", "algos", "speed-factor"});
      return cmd_corpus(args);
    }
    if (command == "batch") {
      reject_unknown_flags(args, command,
                           {"dir", "algos", "threads", "speed-factor", "json", "baseline"});
      return cmd_batch(args);
    }
    if (command == "import") {
      reject_unknown_flags(args, command,
                           {"in", "out", "format", "d", "m", "server-speed", "agent-speed"});
      return cmd_import(args);
    }
    if (command == "checkpoint") {
      reject_unknown_flags(args, command, {"in", "fleet", "algos", "at", "ckpt", "threads"});
      return cmd_checkpoint(args);
    }
    if (command == "chaos") {
      reject_unknown_flags(args, command, {"in", "stride", "flips", "seed", "quiet"});
      return cmd_chaos(args);
    }
    std::cerr << "mobsrv_trace: unknown command '" << command << "'\n";
    print_usage(std::cerr);
    return 2;
  });
}
