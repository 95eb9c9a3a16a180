// Unit tests for scenario/tournament: byte-identical results at any thread
// count and window size (a window wider than the corpus included), sliced
// cells that report what one drained session reports, deterministic
// failures that leave the pool usable,
// roster/--only validation, fleet-scenario roster restriction and skip
// reporting, Elo bookkeeping invariants, and the leaderboard serialisations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>

#include "algorithms/registry.hpp"
#include "common/contracts.hpp"
#include "core/session_multiplexer.hpp"
#include "ext/multi_server.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/tournament.hpp"
#include "stats/rng.hpp"
#include "trace/codec.hpp"

namespace mobsrv::scenario {
namespace {

namespace fs = std::filesystem;

class TournamentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mobsrv_tournament_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    write("alpha.json",
          R"({"v": 1, "name": "alpha", "kind": "uniform-noise", "seed": 1,
              "params": {"horizon": 48}})");
    write("bursty.json",
          R"({"v": 1, "name": "bursty", "kind": "bursts", "seed": 2,
              "params": {"horizon": 40}})");
    write("zig.json",
          R"({"v": 1, "name": "zig", "kind": "zigzag", "params": {"horizon": 32}})");
    write("squad.json",
          R"({"v": 1, "name": "squad", "kind": "uniform-noise", "seed": 3,
              "params": {"horizon": 32}, "fleet": {"size": 3, "spread": 3.0}})");
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write(const std::string& name, const std::string& text) {
    std::ofstream out(dir_ / name);
    out << text << "\n";
  }

  fs::path dir_;
};

TEST_F(TournamentTest, ByteIdenticalAtAnyThreadCountAndChunkSize) {
  // The generated starters, re-seeded and with horizons x4, full roster:
  // cell lengths range from an 8-step inline scenario to thousands of
  // steps, so a window's heavy cells finish after lighter cells submitted
  // behind them. (The CSV starters need their data files; CI covers them
  // with the committed corpus.)
  const fs::path corpus = dir_ / "starters";
  fs::create_directories(corpus);
  for (Scenario sc : starter_corpus()) {
    if (!sc.params.file.empty()) continue;
    sc.seed = stats::mix_keys({stats::hash_name(sc.name), 7});
    sc.params.horizon *= 4;
    std::ofstream(corpus / (sc.name + ".json")) << canonical_text(sc) << "\n";
  }
  TournamentOptions options;
  options.seed = 7;

  std::string baseline;
  for (const unsigned threads : {1u, 2u, 4u}) {
    par::ThreadPool pool(threads);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                    std::size_t{16}}) {
      TournamentOptions opts = options;
      opts.chunk = chunk;
      const std::string report = tournament_to_json(run_tournament(corpus, pool, opts)).dump();
      if (baseline.empty())
        baseline = report;
      else
        EXPECT_EQ(report, baseline) << threads << " threads, chunk " << chunk;
    }
  }
  EXPECT_FALSE(baseline.empty());
}

TEST_F(TournamentTest, EveryCellReportsWhatOneDrainedSessionReports) {
  // Cells several slices long are stepped by many pool tasks on whichever
  // worker is free; each must report exactly what one drain() of the same
  // session reports (same workload, starts and per-cell algorithm seed).
  write("long.json",
        R"({"v": 1, "name": "long", "kind": "drifting-hotspot", "seed": 5,
            "speed_factor": 1.5, "params": {"horizon": 3000}})");
  write("longsquad.json",
        R"({"v": 1, "name": "longsquad", "kind": "uniform-noise", "seed": 6,
            "params": {"horizon": 2500}, "fleet": {"size": 3, "spread": 3.0}})");
  TournamentOptions options;
  options.seed = 11;
  options.only = {"long", "longsquad"};
  par::ThreadPool pool(4);
  const TournamentResult result = run_tournament(dir_, pool, options);
  ASSERT_EQ(result.cells.size(), alg::fleet_algorithm_names().size() +
                                     alg::fleet_native_names().size());
  for (const TournamentCell& cell : result.cells) {
    const Scenario sc = load(dir_ / (cell.scenario + ".json"));
    core::SessionSpec spec;
    spec.workload = std::make_shared<const sim::Instance>(materialize(sc, dir_).instance);
    spec.algorithm = cell.algorithm;
    spec.algo_seed =
        stats::mix_keys({stats::hash_name("tournament"), stats::hash_name(sc.name),
                         stats::hash_name(cell.algorithm), options.seed});
    spec.speed_factor = sc.speed_factor;
    spec.fleet_size = cell.fleet_size;
    if (sc.fleet)
      spec.starts = ext::spread_starts(*spec.workload, static_cast<int>(sc.fleet->size),
                                       sc.fleet->spread);
    core::SessionMultiplexer mux(pool);
    mux.add(std::move(spec));
    mux.drain();
    const core::SessionStats drained = mux.stats(0);
    const std::string what = cell.scenario + "/" + cell.algorithm;
    EXPECT_EQ(cell.total_cost, drained.total_cost) << what;
    EXPECT_EQ(cell.move_cost, drained.move_cost) << what;
    EXPECT_EQ(cell.service_cost, drained.service_cost) << what;
  }
}

TEST_F(TournamentTest, WindowWiderThanTheCorpusIsClampedAndChangesNothing) {
  // --chunk counts running scenarios in a semaphore; a window far wider
  // than the corpus is clamped to the corpus size and must run exactly
  // like a one-scenario window.
  TournamentOptions narrow;
  narrow.seed = 3;
  narrow.chunk = 1;
  TournamentOptions wide = narrow;
  wide.chunk = 1'000'000;
  std::string baseline;
  for (const unsigned threads : {1u, 4u}) {
    par::ThreadPool pool(threads);
    for (const TournamentOptions& opts : {narrow, wide}) {
      const std::string report = tournament_to_json(run_tournament(dir_, pool, opts)).dump();
      if (baseline.empty())
        baseline = report;
      else
        EXPECT_EQ(report, baseline) << threads << " threads, chunk " << opts.chunk;
    }
  }
  EXPECT_NE(baseline.find("\"squad\""), std::string::npos);
}

TEST_F(TournamentTest, FailureIsTheFirstErrorInSubmissionOrderAndLeavesThePoolUsable) {
  // "middle" sorts between "bursty" and "squad": with a window wider than
  // one, the cells of the scenarios before it are still running when its
  // materialisation fails, and they must finish before the window is freed.
  write("middle.json",
        R"({"v": 1, "name": "middle", "kind": "demand",
            "params": {"d": 2, "m": 1, "file": "data/no-such.csv"}})");
  TournamentOptions options;
  options.algorithms = {"MtC", "Lazy", "AssignAndChase"};
  TournamentOptions healthy = options;
  healthy.only = {"alpha", "zig"};

  std::string expected;
  std::string healthy_report;
  for (const unsigned threads : {1u, 2u, 4u}) {
    par::ThreadPool pool(threads);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      TournamentOptions opts = options;
      opts.chunk = chunk;
      std::string message;
      try {
        (void)run_tournament(dir_, pool, opts);
        ADD_FAILURE() << "a missing CSV must fail the tournament";
      } catch (const trace::TraceError& error) {
        message = error.what();
      }
      EXPECT_NE(message.find("no-such.csv"), std::string::npos) << message;
      if (expected.empty()) expected = message;
      EXPECT_EQ(message, expected) << threads << " threads, chunk " << chunk;

      // The pool carries no stale error and runs the next tournament.
      std::atomic<int> ran{0};
      pool.submit([&ran] { ran.fetch_add(1); });
      pool.wait_idle();
      EXPECT_EQ(ran.load(), 1);
      const std::string report = tournament_to_json(run_tournament(dir_, pool, healthy)).dump();
      if (healthy_report.empty()) healthy_report = report;
      EXPECT_EQ(report, healthy_report) << threads << " threads, chunk " << chunk;
    }
  }
}

TEST_F(TournamentTest, DefaultRosterIsEveryFleetAlgorithm) {
  par::ThreadPool pool(2);
  const TournamentResult result = run_tournament(dir_, pool, {});
  EXPECT_EQ(result.algorithms, alg::fleet_algorithm_names());
  EXPECT_TRUE(result.skipped.empty());

  // The fleet scenario is played only by fleet-native strategies; the
  // single-server adapters sit it out.
  const std::vector<std::string> fleet_native = alg::fleet_native_names();
  std::size_t squad_cells = 0;
  for (const TournamentCell& cell : result.cells) {
    if (cell.scenario != "squad") {
      EXPECT_EQ(cell.fleet_size, 1u);
      continue;
    }
    ++squad_cells;
    EXPECT_EQ(cell.fleet_size, 3u);
    EXPECT_NE(std::find(fleet_native.begin(), fleet_native.end(), cell.algorithm),
              fleet_native.end())
        << cell.algorithm << " is not fleet-native but played a fleet scenario";
  }
  EXPECT_EQ(squad_cells, fleet_native.size());

  // Scenario-major cell layout: every non-skipped scenario appears, roster
  // order within each group. "alpha" sorts first, so the first cells are its
  // roster in order.
  ASSERT_GE(result.cells.size(), result.algorithms.size());
  for (std::size_t i = 0; i < result.algorithms.size(); ++i) {
    EXPECT_EQ(result.cells[i].scenario, "alpha");
    EXPECT_EQ(result.cells[i].algorithm, result.algorithms[i]);
  }
}

TEST_F(TournamentTest, FleetScenarioSkippedWithoutFleetNativeRoster) {
  par::ThreadPool pool(2);
  TournamentOptions options;
  options.algorithms = {"MtC", "Lazy"};
  const TournamentResult result = run_tournament(dir_, pool, options);
  ASSERT_EQ(result.skipped.size(), 1u);
  EXPECT_EQ(result.skipped[0], "squad");
  for (const TournamentCell& cell : result.cells) EXPECT_NE(cell.scenario, "squad");
  for (const std::string& name : result.scenarios) EXPECT_NE(name, "squad");

  const std::string markdown = leaderboard_markdown(result);
  EXPECT_NE(markdown.find("skipped"), std::string::npos);
  EXPECT_NE(markdown.find("squad"), std::string::npos);
}

TEST_F(TournamentTest, OnlyFilterSelectsAndValidates) {
  par::ThreadPool pool(2);
  TournamentOptions options;
  options.algorithms = {"MtC", "GreedyCenter"};
  options.only = {"zig"};
  const TournamentResult result = run_tournament(dir_, pool, options);
  ASSERT_EQ(result.scenarios.size(), 1u);
  EXPECT_EQ(result.scenarios[0], "zig");
  EXPECT_EQ(result.cells.size(), 2u);

  options.only = {"no-such-scenario"};
  EXPECT_THROW((void)run_tournament(dir_, pool, options), ContractViolation);
}

TEST_F(TournamentTest, UnknownAndDuplicateAlgorithmsHandled) {
  par::ThreadPool pool(2);
  TournamentOptions options;
  options.algorithms = {"NoSuchStrategy"};
  EXPECT_THROW((void)run_tournament(dir_, pool, options), ContractViolation);

  // Duplicates collapse instead of double-playing (and double-counting Elo).
  options.algorithms = {"MtC", "MtC", "Lazy"};
  options.only = {"zig"};
  const TournamentResult result = run_tournament(dir_, pool, options);
  EXPECT_EQ(result.algorithms, (std::vector<std::string>{"MtC", "Lazy"}));
  EXPECT_EQ(result.cells.size(), 2u);
}

TEST_F(TournamentTest, EloBookkeepingInvariants) {
  par::ThreadPool pool(2);
  TournamentOptions options;
  options.algorithms = {"MtC", "GreedyCenter", "Lazy"};
  const TournamentResult result = run_tournament(dir_, pool, options);

  // Elo is zero-sum around the initial 1000 rating, the board is sorted
  // descending, and pairwise wins/losses balance.
  double elo_sum = 0.0;
  std::size_t wins = 0;
  std::size_t losses = 0;
  std::size_t draws = 0;
  for (std::size_t i = 0; i < result.leaderboard.size(); ++i) {
    const LeaderboardRow& row = result.leaderboard[i];
    elo_sum += row.elo;
    wins += row.wins;
    losses += row.losses;
    draws += row.draws;
    if (i > 0) {
      EXPECT_GE(result.leaderboard[i - 1].elo, row.elo);
    }
    EXPECT_EQ(row.scenarios, result.scenarios.size());
    EXPECT_GT(row.total_cost, 0.0);
    // Every cell on these workloads has positive cost, so each played
    // scenario contributed one ratio sample, and each ratio is >= 1.
    EXPECT_EQ(row.ratio_vs_best.count(), result.scenarios.size());
    EXPECT_GE(row.ratio_vs_best.min(), 1.0);
  }
  EXPECT_NEAR(elo_sum, 1000.0 * static_cast<double>(result.leaderboard.size()), 1e-6);
  EXPECT_EQ(wins, losses);
  EXPECT_EQ(draws % 2, 0u);
  // 3 algorithms -> 3 pairings per scenario.
  EXPECT_EQ(wins + losses + draws, 2 * 3 * result.scenarios.size());

  // Exactly one cell per scenario reports ratio_vs_best == 1 as the best.
  for (const std::string& name : result.scenarios) {
    std::size_t best_rows = 0;
    for (const TournamentCell& cell : result.cells)
      if (cell.scenario == name && cell.ratio_vs_best == 1.0) ++best_rows;
    EXPECT_GE(best_rows, 1u) << name;
  }
}

TEST_F(TournamentTest, JsonAndMarkdownCarryTheLeaderboard) {
  par::ThreadPool pool(2);
  TournamentOptions options;
  options.algorithms = {"MtC", "Lazy"};
  options.seed = 5;
  const TournamentResult result = run_tournament(dir_, pool, options);

  const io::Json doc = tournament_to_json(result);
  EXPECT_EQ(doc.at("v").as_uint64(), 1u);
  EXPECT_EQ(doc.at("seed").as_uint64(), 5u);
  EXPECT_EQ(doc.at("algorithms").as_array().size(), 2u);
  EXPECT_EQ(doc.at("leaderboard").as_array().size(), 2u);
  EXPECT_EQ(doc.at("cells").as_array().size(), result.cells.size());
  const io::Json& top = doc.at("leaderboard").as_array().front();
  EXPECT_TRUE(top.find("elo") != nullptr);
  EXPECT_TRUE(top.find("mean_ratio_vs_best") != nullptr);

  const std::string markdown = leaderboard_markdown(result);
  EXPECT_NE(markdown.find("| rank | algorithm | Elo |"), std::string::npos);
  EXPECT_NE(markdown.find("MtC"), std::string::npos);
  EXPECT_NE(markdown.find("Lazy"), std::string::npos);
}

TEST_F(TournamentTest, AdversaryRatiosReportedWhenAvailable) {
  write("lb.json",
        R"({"v": 1, "name": "lb", "kind": "theorem2",
            "params": {"horizon": 64, "r_max": 2}})");
  par::ThreadPool pool(2);
  TournamentOptions options;
  options.algorithms = {"MtC"};
  options.only = {"lb", "zig"};
  const TournamentResult result = run_tournament(dir_, pool, options);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const TournamentCell& cell : result.cells) {
    if (cell.scenario == "lb") {
      EXPECT_GT(cell.ratio_vs_adversary, 0.0) << "theorem2 carries an adversary solution";
    } else {
      EXPECT_EQ(cell.ratio_vs_adversary, 0.0) << "zigzag has no adversary solution";
    }
  }
}

}  // namespace
}  // namespace mobsrv::scenario
