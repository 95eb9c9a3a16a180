/// \file tournament.hpp
/// Corpus-scale algorithm tournaments over scenario files.
///
/// A tournament runs every rostered fleet algorithm over every scenario of
/// a corpus directory, aggregates per-cell costs and competitive-ratio
/// samples, and ranks the algorithms on an Elo leaderboard (every pair of
/// algorithms "plays" each scenario; lower total cost wins).
///
/// Execution is a sliding window of at most `chunk` running scenarios.
/// Every (scenario × algorithm) cell is a one-session
/// core::SessionMultiplexer stepped a bounded slice at a time: each slice
/// is one par::ThreadPool task that re-queues the cell behind every other
/// runnable cell while steps remain, so all running cells progress
/// together. A counting semaphore holds the window: the calling thread
/// takes a slot before it materialises a scenario, and the scenario's last
/// cell gives it back, so the next materialisation waits for any running
/// scenario, never for the oldest. Reports are harvested in submission
/// order (ratios, leaderboard, Elo) without blocking while scenarios
/// remain to submit; peak memory is bounded by the running scenarios.
/// Because a cell's result never depends on which workers ran its slices
/// or when, and harvest keeps submission order, the whole result —
/// leaderboard JSON included — is byte-identical for any
/// `--threads`/`--chunk` choice. A failing slice or materialisation is
/// reported as the first error in submission order, after every submitted
/// cell has finished.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/scenario.hpp"
#include "stats/summary.hpp"

namespace mobsrv::scenario {

struct TournamentOptions {
  /// Roster; empty = every registered fleet algorithm
  /// (alg::fleet_algorithm_names()). Unknown names are a ContractViolation
  /// (a usage error at the CLI).
  std::vector<std::string> algorithms;
  /// Scenario-name filter; empty = the whole corpus. Names that match no
  /// loaded scenario are a ContractViolation.
  std::vector<std::string> only;
  /// Seeds the *algorithms* (mixed per cell with the scenario name).
  /// Workloads are pinned by each scenario file's own "seed" member.
  std::uint64_t seed = 0;
  /// Scenarios whose cells are still running: the sliding window's size,
  /// clamped to [1, corpus size] (0 is taken as 1). Bounds peak memory;
  /// never changes results.
  std::size_t chunk = 8;
};

/// One (scenario × algorithm) outcome.
struct TournamentCell {
  std::string scenario;
  std::string algorithm;
  std::size_t fleet_size = 1;
  double total_cost = 0.0;
  double move_cost = 0.0;
  double service_cost = 0.0;
  /// cost / best cost on this scenario (best = 1; 0 when the best run was
  /// free and this one was not) — the batch_runner convention.
  double ratio_vs_best = 0.0;
  /// cost / adversary cost when the scenario carries an adversary solution,
  /// else 0.
  double ratio_vs_adversary = 0.0;
};

struct LeaderboardRow {
  std::string algorithm;
  double elo = 1000.0;
  std::size_t scenarios = 0;  ///< cells played
  std::size_t wins = 0;       ///< pairwise outcomes across all scenarios
  std::size_t draws = 0;
  std::size_t losses = 0;
  stats::Summary ratio_vs_best;
  double total_cost = 0.0;  ///< summed across played cells
};

struct TournamentResult {
  std::uint64_t seed = 0;
  std::vector<std::string> algorithms;  ///< the roster, in play order
  std::vector<std::string> scenarios;   ///< run order (sorted file order)
  /// Scenarios no rostered algorithm could play (fleet scenarios when the
  /// roster holds no fleet-native strategy). Reported, never silent.
  std::vector<std::string> skipped;
  std::vector<TournamentCell> cells;  ///< scenario-major, roster order within
  std::vector<LeaderboardRow> leaderboard;  ///< Elo descending (stable)
};

/// Runs the tournament over the given scenario files in their given order
/// (pass list_scenario_files() output for the canonical sorted order).
/// Relative CSV paths inside a scenario resolve against that scenario
/// file's directory.
[[nodiscard]] TournamentResult run_tournament(const std::vector<std::filesystem::path>& files,
                                              par::ThreadPool& pool,
                                              const TournamentOptions& options = {});

/// Convenience: list_scenario_files(corpus_dir) + run_tournament.
[[nodiscard]] TournamentResult run_tournament(const std::filesystem::path& corpus_dir,
                                              par::ThreadPool& pool,
                                              const TournamentOptions& options = {});

/// Machine-readable report; byte-deterministic for a fixed result (doubles
/// in shortest round-trip form, fixed member order).
[[nodiscard]] io::Json tournament_to_json(const TournamentResult& result);

/// The leaderboard as a GitHub-flavoured markdown table.
[[nodiscard]] std::string leaderboard_markdown(const TournamentResult& result);

}  // namespace mobsrv::scenario
