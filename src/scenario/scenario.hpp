/// \file scenario.hpp
/// The declarative scenario layer: workloads as versioned JSON files, and
/// the one workload registry.
///
/// Every workload the library can generate in C++ — the Theorem 1–3/8
/// lower-bound adversaries, the realistic demand workloads and the mobility
/// models — plus the CSV importers is expressible as one small JSON file:
/// generator kind + parameters + seed + an optional fleet spec. Dropping a
/// file into a corpus directory is all it takes to add a scenario; no
/// recompile.
///
/// Each kind is one table in scenario.cpp: per parameter the JSON key, the
/// ScenarioParams member it sets, its range rule, and the member of the
/// generator's own parameter struct (adv::*Params, or the importer options)
/// it feeds, whose value is the default. One generic loop over the table
/// parses (allowlist and range errors), emits canonical_text and copies the
/// parameters into the generator call in materialize(). Adding a kind, or a
/// parameter, takes a table row and the generator call.
///
/// The format is strict in the serve/frames tradition: unknown members,
/// wrong types and out-of-range values fail loudly with the file and
/// scenario name attached — a typo'd "hroizon" must never silently run the
/// default workload. Materialisation is pinned by committed golden digests
/// (tests/test_scenario_corpus.cpp): every starter scenario, at two seeds
/// and at the horizon scales mobsrv_trace uses, must encode to the same
/// trace bytes in every build. The RNG stream is keyed by scenario *name*
/// and seed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"
#include "sim/model.hpp"
#include "trace/recorder.hpp"
#include "trace/trace.hpp"

namespace mobsrv::scenario {

/// Format version declared by every scenario file ("v": 1).
inline constexpr std::uint32_t kFormatVersion = 1;

/// Hard ceiling on horizons, inline step counts and pause/phase lengths —
/// the trace importers' limit, for the same reason: a wall-clock timestamp
/// pasted into "horizon" must fail loudly, not allocate terabytes.
inline constexpr std::size_t kMaxRounds = std::size_t{1} << 22;

/// Thrown on malformed scenario files. The message carries the file (or
/// parse context) and, once known, the scenario name — the frames layer's
/// attributed-error discipline.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Optional fleet request: run this scenario with k servers spread on a
/// circle (interval in 1-D) of the given radius around the start
/// (ext::spread_starts). Scenarios with size > 1 are driven only by
/// fleet-native strategies in a tournament.
struct FleetSpec {
  std::size_t size = 1;
  double spread = 2.0;
};

/// Kind-specific generator parameters: the superset of every generator's
/// knobs, with the slice a kind reads defined by its parameter table (see
/// scenario.cpp). parse() fills kind-appropriate defaults (the generator
/// structs' own defaults; unit server speed and D = 2 for the mobility
/// kinds) before applying the file's overrides, so to_json(parse(x)) pins
/// every parameter explicitly.
struct ScenarioParams {
  std::size_t horizon = 0;
  double move_cost_weight = 1.0;  ///< JSON key "d"
  double max_step = 1.0;          ///< JSON key "m"
  int dim = 1;
  std::size_t requests_per_step = 1;
  std::size_t x = 0;
  double delta = 0.5;
  std::size_t r_min = 1;
  std::size_t r_max = 1;
  double server_speed = 1.0;
  double epsilon = 0.5;
  double drift_speed = 0.0;
  double spread = 1.0;
  double site_distance = 20.0;
  std::size_t period = 64;
  double burst_probability = 0.1;
  double half_width = 8.0;
  double speed = 1.0;
  double alpha = 0.85;
  double mean_speed_fraction = 0.5;
  double noise_fraction = 0.4;
  double min_speed_fraction = 0.5;
  std::size_t max_pause = 8;
  std::size_t half_period = 16;
  sim::ServiceOrder order = sim::ServiceOrder::kMoveThenServe;
  double agent_speed = 1.0;
  /// Importer kinds: explicit server start (demand; empty = first request).
  sim::Point start;
  /// Importer kinds: CSV path, resolved against the scenario file's
  /// directory at materialise time. Exactly one of file/steps for "demand";
  /// "waypoints" is file-only.
  std::string file;
  /// Inline demand data: one entry per step, each a (possibly empty) batch.
  std::vector<std::vector<sim::Point>> steps;
  bool has_inline_steps = false;
};

/// One parsed, validated scenario.
struct Scenario {
  std::string name;
  std::string kind;
  std::uint64_t seed = 0;
  double speed_factor = 1.5;  ///< (1+δ) granted to online algorithms
  std::optional<FleetSpec> fleet;
  ScenarioParams params;
};

/// Every generator/importer kind, in registry order.
[[nodiscard]] const std::vector<std::string>& scenario_kinds();

/// Parses and validates one scenario document. \p context prefixes error
/// messages (a file path, or "<inline>" for tests). Throws ScenarioError on
/// any unknown member, missing required member, wrong type or out-of-range
/// value.
[[nodiscard]] Scenario parse(std::string_view text, const std::string& context);
[[nodiscard]] Scenario from_json(const io::Json& doc, const std::string& context);

/// Reads and parses \p path (context = the path itself).
[[nodiscard]] Scenario load(const std::filesystem::path& path);

/// The scenario as a JSON document with every parameter pinned explicitly,
/// members in canonical order — from_json(to_json(s)) reproduces s exactly.
[[nodiscard]] io::Json to_json(const Scenario& sc);

/// The canonical on-disk form: to_json pretty-printed (2-space indent,
/// newline-terminated). Committed corpus files are byte-compared against it
/// in tests, so regeneration is always possible from code.
[[nodiscard]] std::string canonical_text(const Scenario& sc);

/// Builds the scenario's workload: generator kinds run their seeded
/// construction (the same name, parameters and seed always give the same
/// instance); importer kinds read their CSV relative to \p base_dir. The
/// result carries meta {name, "scenario", seed} plus the adversary solution
/// / moving-client provenance where the generator provides one.
[[nodiscard]] trace::TraceFile materialize(const Scenario& sc,
                                           const std::filesystem::path& base_dir = {});

/// All *.json files directly inside \p dir, sorted by name. Throws
/// ScenarioError when the directory is missing or holds none.
[[nodiscard]] std::vector<std::filesystem::path> list_scenario_files(
    const std::filesystem::path& dir);

/// The committed starter corpus (scenarios/ in the repo): 12 generator
/// scenarios covering every generator kind, importer examples (inline + CSV
/// demand, CSV waypoints) and a fleet scenario. scenarios/<name>.json holds
/// canonical_text() of each.
[[nodiscard]] const std::vector<Scenario>& starter_corpus();

/// The starter scenarios `mobsrv_trace` records by name: the single-server
/// generator scenarios of starter_corpus(), in corpus order. The importer
/// scenarios have no horizon to scale; a trace file has no fleet.
[[nodiscard]] std::vector<Scenario> generator_starters();

/// Looks up the generator starter \p name, re-seeds it with \p seed, sets
/// its horizon to max(16, ⌊horizon·scale⌋) and materialises it. Throws
/// ContractViolation for an unknown name, or for a scale that is not
/// positive or would push the horizon past 1e9.
[[nodiscard]] trace::TraceFile starter_trace(const std::string& name, std::uint64_t seed,
                                             double scale = 1.0);

/// Writes starter_trace(name, seed, scale) of every generator starter
/// through \p recorder; returns the paths written. When \p algorithms is
/// non-empty, each file also carries runs of those algorithms recorded at
/// \p speed_factor (seeded with \p seed).
std::vector<std::filesystem::path> write_corpus(trace::Recorder& recorder, std::uint64_t seed,
                                                double scale = 1.0,
                                                const std::vector<std::string>& algorithms = {},
                                                double speed_factor = 1.5);

}  // namespace mobsrv::scenario
