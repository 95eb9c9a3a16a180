// Unit tests for trace files built from the starter corpus: every generator
// starter materialises by name (scenario::starter_trace), writes, reads back
// identically and deterministically; the trace/importers demand/waypoint
// importers accept well-formed tables and reject malformed ones loudly.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>

#include "scenario/scenario.hpp"
#include "trace/importers.hpp"
#include "trace/replay.hpp"

namespace mobsrv::trace {
namespace {

namespace fs = std::filesystem;
using scenario::generator_starters;
using scenario::starter_trace;

class TraceCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mobsrv_corpus_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write_text(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream out(path);
    out << text;
    return path;
  }

  fs::path dir_;
};

TEST_F(TraceCorpusTest, EveryScenarioRoundTripsAndReplays) {
  for (const scenario::Scenario& starter : generator_starters()) {
    // Tiny scale keeps the full sweep fast.
    TraceFile file = starter_trace(starter.name, 3, 0.05);
    EXPECT_EQ(file.meta.name, starter.name);
    EXPECT_GE(file.instance.horizon(), 16u);
    file.runs.push_back(record_run(file.instance, "MtC", 3, 1.5));
    for (const Codec codec : {Codec::kJsonl, Codec::kBinary}) {
      const TraceFile back = decode_trace(encode_trace(file, codec), starter.name);
      EXPECT_TRUE(identical(file, back)) << starter.name << " via " << to_string(codec);
      EXPECT_TRUE(replay(back).all_match()) << starter.name << " via " << to_string(codec);
    }
  }
}

TEST_F(TraceCorpusTest, GenerationIsDeterministicInSeedAndScale) {
  const std::string bytes_a = encode_trace(starter_trace("bursts", 9, 0.1), Codec::kBinary);
  const std::string bytes_b = encode_trace(starter_trace("bursts", 9, 0.1), Codec::kBinary);
  const std::string bytes_c = encode_trace(starter_trace("bursts", 10, 0.1), Codec::kBinary);
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_NE(bytes_a, bytes_c);
}

TEST_F(TraceCorpusTest, MovingClientScenariosCarryTheirPaths) {
  const TraceFile file = starter_trace("random-waypoint", 1, 0.05);
  ASSERT_TRUE(file.moving_client.has_value());
  EXPECT_EQ(file.moving_client->agents.size(), 1u);
  EXPECT_EQ(file.moving_client->horizon(), file.instance.horizon());
  // One request per agent per round.
  EXPECT_EQ(file.instance.total_requests(), file.instance.horizon());
}

TEST_F(TraceCorpusTest, LowerBoundScenariosCarryTheAdversary) {
  const TraceFile file = starter_trace("theorem1", 2, 0.05);
  ASSERT_TRUE(file.adversary.has_value());
  EXPECT_GT(file.adversary->cost, 0.0);
  EXPECT_EQ(file.adversary->positions.size(), file.instance.horizon() + 1);
}

TEST_F(TraceCorpusTest, UnknownScenarioThrows) {
  EXPECT_THROW((void)starter_trace("no-such-scenario", 0), ContractViolation);
  // Importer and fleet starters have no single-server horizon to scale.
  EXPECT_THROW((void)starter_trace("inline-demand", 0), ContractViolation);
  EXPECT_THROW((void)starter_trace("fleet-noise", 0), ContractViolation);
  EXPECT_NO_THROW((void)starter_trace("commute", 0, 0.05));
  // A scale that is not positive, or that overflows the horizon, is refused.
  for (const double scale : {0.0, -1.0, std::nan(""), 1e9})
    EXPECT_THROW((void)starter_trace("commute", 0, scale), ContractViolation) << scale;
}

TEST_F(TraceCorpusTest, WriteCorpusProducesOneFilePerScenario) {
  RecorderOptions options;
  options.dir = dir_ / "corpus";
  options.codec = Codec::kBinary;
  Recorder recorder(options);
  const std::vector<fs::path> paths = scenario::write_corpus(recorder, 5, 0.05);
  std::set<std::string> written;
  for (const fs::path& path : paths) {
    EXPECT_TRUE(fs::is_regular_file(path)) << path;
    EXPECT_EQ(path.extension(), ".mtb");
    written.insert(read_trace(path).meta.name);
  }
  // The 12 generator starters, one file each.
  const std::set<std::string> expected = {
      "theorem1",         "theorem2",            "theorem3",        "theorem8-moving-client",
      "drifting-hotspot", "drifting-hotspot-1d", "commute",         "bursts",
      "uniform-noise",    "random-waypoint",     "gauss-markov",    "zigzag",
  };
  EXPECT_EQ(paths.size(), expected.size());
  EXPECT_EQ(written, expected);
}

// ---------------------------------------------------------------------------
// Importers.
// ---------------------------------------------------------------------------

TEST_F(TraceCorpusTest, DemandImportBuildsBatchesWithGaps) {
  const fs::path csv = write_text("demand.csv",
                                  "# t x y\n"
                                  "0, 1.0, 2.0\n"
                                  "0, 1.5, 2.5\n"
                                  "3, -1.0, 0.25\n");
  DemandImportOptions options;
  options.move_cost_weight = 2.0;
  const TraceFile file = import_demand(csv, options);
  EXPECT_EQ(file.instance.dim(), 2);
  ASSERT_EQ(file.instance.horizon(), 4u);  // rounds 0..3
  EXPECT_EQ(file.instance.step(0).size(), 2u);
  EXPECT_TRUE(file.instance.step(1).empty());
  EXPECT_TRUE(file.instance.step(2).empty());
  EXPECT_EQ(file.instance.step(3).size(), 1u);
  // Default start: the first request.
  EXPECT_EQ(file.instance.start(), (sim::Point{1.0, 2.0}));
  EXPECT_EQ(file.instance.params().move_cost_weight, 2.0);
  // Imported traces round-trip like any other.
  EXPECT_TRUE(identical(file, decode_trace(encode_trace(file, Codec::kJsonl), "mem")));
}

TEST_F(TraceCorpusTest, DemandImportRejectsMalformedInput) {
  EXPECT_THROW((void)import_demand(dir_ / "missing.csv"), TraceError);
  EXPECT_THROW((void)import_demand(write_text("empty.csv", "# only comments\n")), TraceError);
  EXPECT_THROW((void)import_demand(write_text("badnum.csv", "0 1.0\n1 abc\n")), TraceError);
  EXPECT_THROW((void)import_demand(write_text("order.csv", "5 1.0\n2 1.0\n")), TraceError);
  EXPECT_THROW((void)import_demand(write_text("dims.csv", "0 1.0 2.0\n1 1.0\n")), TraceError);
  EXPECT_THROW((void)import_demand(write_text("negt.csv", "-1 1.0\n")), TraceError);
  try {
    (void)import_demand(write_text("lineinfo.csv", "0 1.0\n1 oops\n"));
    FAIL() << "expected TraceError";
  } catch (const TraceError& error) {
    // Errors carry path:line.
    EXPECT_NE(std::string(error.what()).find("lineinfo.csv:2"), std::string::npos);
  }
}

TEST_F(TraceCorpusTest, WaypointImportProducesFeasibleMovingClient) {
  // Two agents in 2-D; agent 1's waypoints are far apart, so the clamped
  // walk must keep every step within the agent speed.
  const fs::path csv = write_text("waypoints.csv",
                                  "# agent t x y\n"
                                  "0 0 0 0\n"
                                  "0 8 4 0\n"
                                  "1 0 2 2\n"
                                  "1 4 -20 14\n"
                                  "1 8 2 2\n");
  WaypointImportOptions options;
  options.agent_speed = 1.25;
  options.server_speed = 1.0;
  options.move_cost_weight = 3.0;
  const TraceFile file = import_waypoints(csv, options);
  ASSERT_TRUE(file.moving_client.has_value());
  EXPECT_EQ(file.moving_client->agents.size(), 2u);
  EXPECT_EQ(file.instance.horizon(), 8u);
  EXPECT_EQ(file.instance.dim(), 2);
  // validate() enforces the speed limit; must not throw.
  EXPECT_NO_THROW(file.moving_client->validate());
  // Start is the centroid of the agents' first waypoints: ((0,0)+(2,2))/2.
  EXPECT_EQ(file.moving_client->start, (sim::Point{1.0, 1.0}));
  EXPECT_TRUE(identical(file, decode_trace(encode_trace(file, Codec::kBinary), "mem")));
}

TEST_F(TraceCorpusTest, WaypointImportRejectsMalformedInput) {
  EXPECT_THROW((void)import_waypoints(write_text("one.csv", "0 0 1.0\n")), TraceError);
  EXPECT_THROW((void)import_waypoints(write_text("dup.csv", "0 1 1.0\n0 1 2.0\n")), TraceError);
  EXPECT_THROW((void)import_waypoints(write_text("dims.csv", "0 1 1.0 2.0\n0 2 1.0\n")),
               TraceError);
}

}  // namespace
}  // namespace mobsrv::trace
