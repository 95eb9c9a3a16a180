#include "scenario/tournament.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <deque>
#include <exception>
#include <latch>
#include <memory>
#include <semaphore>
#include <utility>

#include "algorithms/registry.hpp"
#include "common/contracts.hpp"
#include "core/session_multiplexer.hpp"
#include "ext/multi_server.hpp"
#include "stats/rng.hpp"

namespace mobsrv::scenario {

namespace {

/// Classic Elo update constants: everyone starts at 1000, K = 32.
constexpr double kInitialElo = 1000.0;
constexpr double kEloK = 32.0;

struct LoadedScenario {
  Scenario scenario;
  std::filesystem::path base_dir;
};

/// The roster slice allowed to play \p sc: fleet scenarios (size > 1) are
/// driven only by fleet-native strategies — the single-server adapters are
/// k = 1 by construction.
std::vector<std::string> roster_for(const Scenario& sc, const std::vector<std::string>& roster,
                                    const std::vector<std::string>& fleet_native) {
  if (!sc.fleet || sc.fleet->size <= 1) return roster;
  std::vector<std::string> allowed;
  for (const std::string& algorithm : roster)
    if (std::find(fleet_native.begin(), fleet_native.end(), algorithm) != fleet_native.end())
      allowed.push_back(algorithm);
  return allowed;
}

/// cost / best with the trace::batch_runner conventions: the best row
/// reports exactly 1; a free best run makes every costly run report 0
/// (ratio undefined) and every other free run report 1.
double ratio_vs(double cost, double best) {
  if (best > 0.0) return cost / best;
  return cost == 0.0 ? 1.0 : 0.0;
}

/// Steps a cell advances per pool task before it re-queues itself behind
/// every other runnable cell. Median job wall over perfbench's four seed-1
/// tournament-batch corpora at 4 threads (32 jobs per size, 4-core
/// container): 518 ms at 64 steps, 524 at 256, 516-520 at 1024, 527 at
/// 4096, 562 at 16384 and 578 unsliced. Slices of 64-4096 steps tie
/// within noise; 1024 takes the fewest queue round trips of those, while
/// longer slices let the heavy cells that start late set the tail again.
constexpr std::size_t kSliceSteps = 1024;

/// One materialised scenario of the sliding window. Each of its cells runs
/// as a chain of pool tasks and writes only its own `stats`/`errors` entry.
/// The cell that finishes last releases the scenario's `running` slot, then
/// every cell counts `done` down, so `done` opens only after the slot is
/// back. The workload is held by the cells alone, so it is freed with the
/// scenario's last session.
struct InFlight {
  InFlight(std::string name_in, std::vector<std::string> players_in, std::size_t fleet_size_in,
           double adversary_cost_in, std::counting_semaphore<>& running_in)
      : name(std::move(name_in)),
        players(std::move(players_in)),
        fleet_size(fleet_size_in),
        adversary_cost(adversary_cost_in),
        stats(players.size()),
        errors(players.size()),
        running(running_in),
        unfinished(players.size()),
        done(static_cast<std::ptrdiff_t>(players.size())) {}

  /// Marks \p cells cells finished. Nothing of this scenario may be touched
  /// afterwards: the caller frees it once `done` opens.
  void finish(std::size_t cells) {
    if (unfinished.fetch_sub(cells) == cells) running.release();
    done.count_down(static_cast<std::ptrdiff_t>(cells));
  }

  std::string name;
  std::vector<std::string> players;  ///< roster order
  std::size_t fleet_size = 1;
  double adversary_cost = 0.0;
  std::vector<core::SessionStats> stats;
  std::vector<std::exception_ptr> errors;
  std::counting_semaphore<>& running;  ///< the window's running-scenario slots
  std::atomic<std::size_t> unfinished;
  std::latch done;
};

/// One (scenario × algorithm) cell: a one-session multiplexer, so a cell is
/// built and stepped exactly as in any other multiplexer. Only one slice of
/// a cell is ever queued or running, and the pool's queue lock orders one
/// slice before the next, whichever workers run them.
struct Cell {
  Cell(par::ThreadPool& pool_in, core::SessionSpec spec_in, InFlight& flight_in, std::size_t p_in)
      : pool(pool_in), spec(std::move(spec_in)), flight(flight_in), p(p_in) {}

  par::ThreadPool& pool;
  core::SessionSpec spec;  ///< moved into `mux` by the first slice
  std::unique_ptr<core::SessionMultiplexer> mux;
  InFlight& flight;
  std::size_t p;  ///< roster position within the scenario
};

/// Runs one slice of \p cell on a pool worker and re-queues the cell while
/// steps remain. A slice that throws, or a re-queue that fails, is the
/// cell's error and finishes it. The session and its workload reference
/// are gone before the cell reports.
void run_slice(const std::shared_ptr<Cell>& cell) {
  InFlight& flight = cell->flight;
  try {
    if (!cell->mux) {
      cell->mux = std::make_unique<core::SessionMultiplexer>(cell->pool);
      cell->mux->set_timing_enabled(false);
      cell->mux->add(std::move(cell->spec));
    }
    if (cell->mux->step(kSliceSteps) > 0) {
      cell->pool.submit([cell] { run_slice(cell); });
      return;
    }
    flight.stats[cell->p] = cell->mux->stats(0);
  } catch (...) {
    flight.errors[cell->p] = std::current_exception();
  }
  cell->mux.reset();
  flight.finish(1);
}

}  // namespace

TournamentResult run_tournament(const std::vector<std::filesystem::path>& files,
                                par::ThreadPool& pool, const TournamentOptions& options) {
  const std::vector<std::string> known = alg::fleet_algorithm_names();
  std::vector<std::string> roster;
  for (const std::string& algorithm :
       options.algorithms.empty() ? known : options.algorithms) {
    if (std::find(known.begin(), known.end(), algorithm) == known.end())
      throw ContractViolation("unknown algorithm '" + algorithm + "' (see --algorithms)");
    if (std::find(roster.begin(), roster.end(), algorithm) == roster.end())
      roster.push_back(algorithm);
  }
  const std::vector<std::string> fleet_native = alg::fleet_native_names();

  std::vector<LoadedScenario> loaded;
  loaded.reserve(files.size());
  for (const std::filesystem::path& path : files)
    loaded.push_back({load(path), path.parent_path()});

  if (!options.only.empty()) {
    for (const std::string& name : options.only) {
      const bool found = std::any_of(loaded.begin(), loaded.end(), [&name](const LoadedScenario& l) {
        return l.scenario.name == name;
      });
      if (!found) throw ContractViolation("--only: no scenario named '" + name + "' in the corpus");
    }
    std::vector<LoadedScenario> filtered;
    for (LoadedScenario& l : loaded)
      if (std::find(options.only.begin(), options.only.end(), l.scenario.name) !=
          options.only.end())
        filtered.push_back(std::move(l));
    loaded = std::move(filtered);
  }

  TournamentResult result;
  result.seed = options.seed;
  result.algorithms = roster;

  // Ratings and per-algorithm accumulators, indexed by roster position.
  std::vector<double> elo(roster.size(), kInitialElo);
  std::vector<LeaderboardRow> rows(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) rows[i].algorithm = roster[i];
  const auto roster_index = [&roster](const std::string& algorithm) {
    return static_cast<std::size_t>(
        std::find(roster.begin(), roster.end(), algorithm) - roster.begin());
  };

  // Scenarios whose cells are still running hold one slot each: the caller
  // takes one before it materialises a scenario, and that scenario's last
  // cell gives it back. Declared before the window, so it outlives every
  // cell that may release it. Clamping to the corpus size keeps any --chunk
  // within the semaphore's max().
  const std::size_t chunk =
      std::clamp<std::size_t>(options.chunk, 1, std::max<std::size_t>(loaded.size(), 1));
  std::counting_semaphore<> running(static_cast<std::ptrdiff_t>(chunk));

  // Closes out the oldest scenario of the window: waits for its cells only,
  // then appends them in roster order with their ratio against the group's
  // best cost, and plays the group's pairwise Elo in roster order.
  std::deque<std::unique_ptr<InFlight>> window;
  const auto harvest_oldest = [&] {
    InFlight& flight = *window.front();
    flight.done.wait();
    for (const std::exception_ptr& error : flight.errors)
      if (error) std::rethrow_exception(error);
    double best = flight.stats.front().total_cost;
    for (const core::SessionStats& stats : flight.stats) best = std::min(best, stats.total_cost);
    const std::size_t group_begin = result.cells.size();
    for (std::size_t p = 0; p < flight.players.size(); ++p) {
      const core::SessionStats& stats = flight.stats[p];
      TournamentCell out;
      out.scenario = flight.name;
      out.algorithm = flight.players[p];
      out.fleet_size = flight.fleet_size;
      out.total_cost = stats.total_cost;
      out.move_cost = stats.move_cost;
      out.service_cost = stats.service_cost;
      out.ratio_vs_best = ratio_vs(stats.total_cost, best);
      if (flight.adversary_cost > 0.0)
        out.ratio_vs_adversary = stats.total_cost / flight.adversary_cost;
      LeaderboardRow& row = rows[roster_index(out.algorithm)];
      row.scenarios += 1;
      row.total_cost += out.total_cost;
      if (out.ratio_vs_best > 0.0) row.ratio_vs_best.add(out.ratio_vs_best);
      result.cells.push_back(std::move(out));
    }
    window.pop_front();

    const std::size_t group_end = result.cells.size();
    for (std::size_t i = group_begin; i < group_end; ++i) {
      for (std::size_t j = i + 1; j < group_end; ++j) {
        const std::size_t a = roster_index(result.cells[i].algorithm);
        const std::size_t b = roster_index(result.cells[j].algorithm);
        const double cost_a = result.cells[i].total_cost;
        const double cost_b = result.cells[j].total_cost;
        const double score_a = cost_a < cost_b ? 1.0 : (cost_a == cost_b ? 0.5 : 0.0);
        if (score_a == 1.0) {
          rows[a].wins += 1;
          rows[b].losses += 1;
        } else if (score_a == 0.0) {
          rows[a].losses += 1;
          rows[b].wins += 1;
        } else {
          rows[a].draws += 1;
          rows[b].draws += 1;
        }
        const double expected_a = 1.0 / (1.0 + std::pow(10.0, (elo[b] - elo[a]) / 400.0));
        const double delta = kEloK * (score_a - expected_a);
        elo[a] += delta;  // zero-sum by construction
        elo[b] -= delta;
      }
    }
  };

  try {
    for (const LoadedScenario& entry : loaded) {
      const Scenario& sc = entry.scenario;
      std::vector<std::string> players = roster_for(sc, roster, fleet_native);
      if (players.empty()) {
        result.skipped.push_back(sc.name);
        continue;
      }
      running.acquire();
      result.scenarios.push_back(sc.name);

      // Materialised here while the workers run the earlier scenarios' cells.
      trace::TraceFile file = materialize(sc, entry.base_dir);
      const std::size_t fleet_size = sc.fleet ? sc.fleet->size : 1;
      const auto workload = std::make_shared<const sim::Instance>(std::move(file.instance));
      std::vector<sim::Point> starts;
      if (fleet_size > 1)
        starts = ext::spread_starts(*workload, static_cast<int>(fleet_size), sc.fleet->spread);
      window.push_back(std::make_unique<InFlight>(sc.name, std::move(players), fleet_size,
                                                  file.adversary ? file.adversary->cost : 0.0,
                                                  running));
      InFlight& flight = *window.back();

      for (std::size_t p = 0; p < flight.players.size(); ++p) {
        core::SessionSpec spec;
        spec.workload = workload;
        spec.algorithm = flight.players[p];
        // --seed steers every algorithm's coin flips without touching the
        // workloads (those are pinned by each file's own "seed" member).
        spec.algo_seed = stats::mix_keys({stats::hash_name("tournament"),
                                          stats::hash_name(sc.name),
                                          stats::hash_name(spec.algorithm), options.seed});
        spec.speed_factor = sc.speed_factor;
        spec.tenant = sc.name;
        spec.fleet_size = fleet_size;
        spec.starts = starts;
        try {
          auto cell = std::make_shared<Cell>(pool, std::move(spec), flight, p);
          pool.submit([cell] { run_slice(cell); });
        } catch (...) {
          flight.finish(flight.players.size() - p);
          throw;
        }
      }
      // Harvest never blocks here: a slow oldest scenario holds back only
      // its own report, not the next materialisation.
      while (!window.empty() && window.front()->done.try_wait()) harvest_oldest();
    }
    while (!window.empty()) harvest_oldest();
  } catch (...) {
    // Cell tasks refer to window state: every submitted one finishes before
    // the window is freed. The first failure in submission order wins, so
    // the error does not depend on --threads or --chunk.
    for (const std::unique_ptr<InFlight>& flight : window) flight->done.wait();
    for (const std::unique_ptr<InFlight>& flight : window)
      for (const std::exception_ptr& error : flight->errors)
        if (error) std::rethrow_exception(error);
    throw;
  }

  for (std::size_t i = 0; i < roster.size(); ++i) rows[i].elo = elo[i];
  result.leaderboard = std::move(rows);
  std::stable_sort(result.leaderboard.begin(), result.leaderboard.end(),
                   [](const LeaderboardRow& a, const LeaderboardRow& b) { return a.elo > b.elo; });
  return result;
}

TournamentResult run_tournament(const std::filesystem::path& corpus_dir, par::ThreadPool& pool,
                                const TournamentOptions& options) {
  return run_tournament(list_scenario_files(corpus_dir), pool, options);
}

io::Json tournament_to_json(const TournamentResult& result) {
  io::Json doc = io::Json::object();
  doc.set("v", io::Json(1U));
  doc.set("seed", io::Json(result.seed));

  io::Json algorithms = io::Json::array();
  for (const std::string& name : result.algorithms) algorithms.push_back(io::Json(name));
  doc.set("algorithms", std::move(algorithms));

  io::Json scenarios = io::Json::array();
  for (const std::string& name : result.scenarios) scenarios.push_back(io::Json(name));
  doc.set("scenarios", std::move(scenarios));

  io::Json skipped = io::Json::array();
  for (const std::string& name : result.skipped) skipped.push_back(io::Json(name));
  doc.set("skipped", std::move(skipped));

  io::Json leaderboard = io::Json::array();
  for (const LeaderboardRow& row : result.leaderboard) {
    io::Json entry = io::Json::object();
    entry.set("algorithm", io::Json(row.algorithm));
    entry.set("elo", io::Json(row.elo));
    entry.set("scenarios", io::Json(row.scenarios));
    entry.set("wins", io::Json(row.wins));
    entry.set("draws", io::Json(row.draws));
    entry.set("losses", io::Json(row.losses));
    entry.set("mean_ratio_vs_best",
              io::Json(row.ratio_vs_best.count() > 0 ? row.ratio_vs_best.mean() : 0.0));
    entry.set("total_cost", io::Json(row.total_cost));
    leaderboard.push_back(std::move(entry));
  }
  doc.set("leaderboard", std::move(leaderboard));

  io::Json cells = io::Json::array();
  for (const TournamentCell& cell : result.cells) {
    io::Json entry = io::Json::object();
    entry.set("scenario", io::Json(cell.scenario));
    entry.set("algorithm", io::Json(cell.algorithm));
    entry.set("fleet_size", io::Json(cell.fleet_size));
    entry.set("total_cost", io::Json(cell.total_cost));
    entry.set("move_cost", io::Json(cell.move_cost));
    entry.set("service_cost", io::Json(cell.service_cost));
    entry.set("ratio_vs_best", io::Json(cell.ratio_vs_best));
    entry.set("ratio_vs_adversary", io::Json(cell.ratio_vs_adversary));
    cells.push_back(std::move(entry));
  }
  doc.set("cells", std::move(cells));
  return doc;
}

std::string leaderboard_markdown(const TournamentResult& result) {
  std::string out;
  out += "| rank | algorithm | Elo | W/D/L | mean ratio vs best | total cost |\n";
  out += "|-----:|-----------|----:|:-----:|-------------------:|-----------:|\n";
  std::size_t rank = 1;
  for (const LeaderboardRow& row : result.leaderboard) {
    out += "| " + std::to_string(rank++) + " | " + row.algorithm + " | ";
    io::append_double(out, std::round(row.elo * 10.0) / 10.0);
    out += " | " + std::to_string(row.wins) + "/" + std::to_string(row.draws) + "/" +
           std::to_string(row.losses) + " | ";
    const double mean = row.ratio_vs_best.count() > 0 ? row.ratio_vs_best.mean() : 0.0;
    io::append_double(out, std::round(mean * 1000.0) / 1000.0);
    out += " | ";
    io::append_double(out, std::round(row.total_cost * 100.0) / 100.0);
    out += " |\n";
  }
  if (!result.skipped.empty()) {
    out += "\nskipped (no fleet-native algorithm in the roster):";
    for (const std::string& name : result.skipped) out += " " + name;
    out += "\n";
  }
  return out;
}

}  // namespace mobsrv::scenario
