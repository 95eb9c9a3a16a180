// Sweep over the committed scenarios/ corpus: every file parses, validates
// and materialises; every key in every file is load-bearing (injecting an
// unknown key anywhere must fail); the files are byte-identical to
// canonical_text(starter_corpus()); and every starter scenario materialises
// to committed golden trace digests, at two seeds and at the horizon scales
// mobsrv_trace and CI use.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "io/json.hpp"
#include "scenario/scenario.hpp"
#include "stats/rng.hpp"
#include "trace/codec.hpp"

#ifndef MOBSRV_SCENARIOS_DIR
#error "MOBSRV_SCENARIOS_DIR must point at the committed scenarios/ directory"
#endif

namespace mobsrv::scenario {
namespace {

namespace fs = std::filesystem;

fs::path corpus_dir() { return fs::path(MOBSRV_SCENARIOS_DIR); }

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Counts JSON objects in \p value (document order, root first).
std::size_t count_objects(const io::Json& value) {
  std::size_t n = 0;
  if (value.is_object()) {
    ++n;
    for (const io::Json::Member& member : value.as_object()) n += count_objects(member.second);
  } else if (value.is_array()) {
    for (const io::Json& element : value.as_array()) n += count_objects(element);
  }
  return n;
}

/// Injects an unknown member into the \p target-th object (document order).
/// Returns true once injected.
bool inject_unknown(io::Json& value, std::size_t& target) {
  if (value.is_object()) {
    if (target == 0) {
      value.set("__unknown_member__", io::Json(1));
      return true;
    }
    --target;
    for (io::Json::Member& member : value.as_object())
      if (inject_unknown(member.second, target)) return true;
  } else if (value.is_array()) {
    for (io::Json& element : value.as_array())
      if (inject_unknown(element, target)) return true;
  }
  return false;
}

TEST(ScenarioCorpus, FilesMatchStarterCorpusByteForByte) {
  const std::vector<fs::path> files = list_scenario_files(corpus_dir());
  std::set<std::string> on_disk;
  for (const fs::path& path : files) on_disk.insert(path.stem().string());

  std::set<std::string> expected;
  for (const Scenario& sc : starter_corpus()) {
    expected.insert(sc.name);
    const fs::path path = corpus_dir() / (sc.name + ".json");
    EXPECT_EQ(read_file(path), canonical_text(sc))
        << path << " is out of sync with starter_corpus() — regenerate it from code";
  }
  EXPECT_EQ(on_disk, expected);
}

TEST(ScenarioCorpus, EveryFileParsesValidatesAndMaterializes) {
  for (const fs::path& path : list_scenario_files(corpus_dir())) {
    SCOPED_TRACE(path.string());
    const Scenario sc = load(path);
    EXPECT_EQ(sc.name, path.stem().string());
    const trace::TraceFile file = materialize(sc, corpus_dir());
    EXPECT_EQ(file.meta.name, sc.name);
    EXPECT_EQ(file.meta.source, "scenario");
    EXPECT_GT(file.instance.horizon(), 0u);
  }
}

TEST(ScenarioCorpus, EveryFieldInEveryFileIsRecognized) {
  // Injecting one unknown key into *any* object of *any* committed file
  // must fail validation — proof that every existing key sits inside an
  // allowlist and none is silently ignored.
  for (const fs::path& path : list_scenario_files(corpus_dir())) {
    const io::Json doc = io::Json::parse(read_file(path));
    const std::size_t objects = count_objects(doc);
    ASSERT_GT(objects, 0u) << path;
    for (std::size_t i = 0; i < objects; ++i) {
      io::Json mutated = doc;
      std::size_t target = i;
      ASSERT_TRUE(inject_unknown(mutated, target)) << path;
      EXPECT_THROW((void)from_json(mutated, path.string()), ScenarioError)
          << path << ": unknown key in object #" << i << " was not rejected";
    }
  }
}

/// FNV-1a over the trace's binary encoding, with the provenance fixed so
/// only the instance, adversary and moving-client bits count.
std::uint64_t digest(trace::TraceFile file) {
  file.meta = trace::TraceMeta{"golden", "golden", 0};
  return stats::hash_name(trace::encode_trace(file, trace::Codec::kBinary));
}

struct Golden {
  const char* name;
  std::uint64_t seed;
  double scale;  ///< 1.0: materialize(); else starter_trace(name, seed, scale)
  std::uint64_t digest;
};

/// Captured before the scenario tables replaced the compiled-in generator
/// corpus, where both builders agreed on every generator row, so these pin
/// the workloads every earlier result was measured on. A mismatch means a
/// workload changed, not a test to update.
constexpr Golden kGolden[] = {
    {"theorem1", 3, 1.0, 0x627105874769fdb9ULL},
    {"theorem1", 11, 1.0, 0x627105874769fdb9ULL},
    {"theorem2", 3, 1.0, 0x0cd49169e27adf98ULL},
    {"theorem2", 11, 1.0, 0xe1d44c98bc4f063cULL},
    {"theorem3", 3, 1.0, 0x509b0da9b7a94974ULL},
    {"theorem3", 11, 1.0, 0x61a914c91a247354ULL},
    {"theorem8-moving-client", 3, 1.0, 0x8fcadba93f706847ULL},
    {"theorem8-moving-client", 11, 1.0, 0x05ee655cb880f547ULL},
    {"drifting-hotspot", 3, 1.0, 0x6f75169d5a2814c6ULL},
    {"drifting-hotspot", 11, 1.0, 0x1d8d7faebd4756daULL},
    {"drifting-hotspot-1d", 3, 1.0, 0xc478477c737038b4ULL},
    {"drifting-hotspot-1d", 11, 1.0, 0x6ab4a7e672fff3d8ULL},
    {"commute", 3, 1.0, 0xe48e624f972ef0f1ULL},
    {"commute", 11, 1.0, 0x49bb2f428a745936ULL},
    {"bursts", 3, 1.0, 0x5b2165abc538e6aaULL},
    {"bursts", 11, 1.0, 0xce58dab1e91644b0ULL},
    {"uniform-noise", 3, 1.0, 0x247201ff1e7f7dd5ULL},
    {"uniform-noise", 11, 1.0, 0xfd31e6ef1de9d252ULL},
    {"random-waypoint", 3, 1.0, 0x3b51311a8f78f109ULL},
    {"random-waypoint", 11, 1.0, 0xd9401c8b02774945ULL},
    {"gauss-markov", 3, 1.0, 0x48aa003fcc6eedbdULL},
    {"gauss-markov", 11, 1.0, 0x072b9e3b44d02377ULL},
    {"zigzag", 3, 1.0, 0xdb08e80ee076ab6aULL},
    {"zigzag", 11, 1.0, 0xdb08e80ee076ab6aULL},
    {"inline-demand", 3, 1.0, 0xa3f4ccc518a0a74eULL},
    {"inline-demand", 11, 1.0, 0xa3f4ccc518a0a74eULL},
    {"demand-csv", 3, 1.0, 0x4c45a329841531a5ULL},
    {"demand-csv", 11, 1.0, 0x4c45a329841531a5ULL},
    {"waypoints-csv", 3, 1.0, 0xaa2164b3207f9cfaULL},
    {"waypoints-csv", 11, 1.0, 0xaa2164b3207f9cfaULL},
    {"fleet-noise", 3, 1.0, 0xb31d30095b6b4e41ULL},
    {"fleet-noise", 11, 1.0, 0x1cde3f23c7c54bc7ULL},
    {"theorem1", 3, 0.05, 0x6ca0c7b21849549eULL},
    {"theorem1", 11, 0.05, 0x6ca0c7b21849549eULL},
    {"theorem2", 3, 0.05, 0x87d8ecc594962420ULL},
    {"theorem2", 11, 0.05, 0x143ed7964fe9b79eULL},
    {"theorem3", 3, 0.05, 0x6d97a928a82f77fcULL},
    {"theorem3", 11, 0.05, 0xe9ed480e92ae95fcULL},
    {"theorem8-moving-client", 3, 0.05, 0x29efd42a7e4bef4cULL},
    {"theorem8-moving-client", 11, 0.05, 0xdc3492fd1f6600ccULL},
    {"drifting-hotspot", 3, 0.05, 0x77051a879ca84fceULL},
    {"drifting-hotspot", 11, 0.05, 0x154fdb121657c8c1ULL},
    {"drifting-hotspot-1d", 3, 0.05, 0x802a7aca0f8628b4ULL},
    {"drifting-hotspot-1d", 11, 0.05, 0xc41854c97cf08e8eULL},
    {"commute", 3, 0.05, 0xb15db14512ec9727ULL},
    {"commute", 11, 0.05, 0xabf3a836393ddd2cULL},
    {"bursts", 3, 0.05, 0xe1a6718783a038b6ULL},
    {"bursts", 11, 0.05, 0x0465053b94647b35ULL},
    {"uniform-noise", 3, 0.05, 0x3a48a1975c21b1aeULL},
    {"uniform-noise", 11, 0.05, 0x9ce278943d606b19ULL},
    {"random-waypoint", 3, 0.05, 0x1e2c82d6af932495ULL},
    {"random-waypoint", 11, 0.05, 0xbcac752b9f8d2d3fULL},
    {"gauss-markov", 3, 0.05, 0x3a40871c13f61af5ULL},
    {"gauss-markov", 11, 0.05, 0x52d2a2f17efb1f97ULL},
    {"zigzag", 3, 0.05, 0x33f5c2bf474d639eULL},
    {"zigzag", 11, 0.05, 0x33f5c2bf474d639eULL},
    {"theorem1", 3, 0.1, 0x0d8b5da53b76fd6bULL},
    {"theorem1", 11, 0.1, 0x0d8b5da53b76fd6bULL},
    {"theorem2", 3, 0.1, 0x889640a5a32a9bdeULL},
    {"theorem2", 11, 0.1, 0x252ef15225811a30ULL},
    {"theorem3", 3, 0.1, 0x7f0580a73a6c7ce8ULL},
    {"theorem3", 11, 0.1, 0x033a5b98adab94a8ULL},
    {"theorem8-moving-client", 3, 0.1, 0x84ce3f6756f83610ULL},
    {"theorem8-moving-client", 11, 0.1, 0x558cfc9592a3e410ULL},
    {"drifting-hotspot", 3, 0.1, 0xf7ede0e163531e2fULL},
    {"drifting-hotspot", 11, 0.1, 0xcc27936feafd768dULL},
    {"drifting-hotspot-1d", 3, 0.1, 0xdec72b3185ca036aULL},
    {"drifting-hotspot-1d", 11, 0.1, 0x3018032263a905b9ULL},
    {"commute", 3, 0.1, 0x982ca8347aace51fULL},
    {"commute", 11, 0.1, 0x9b92d0cab5bd4312ULL},
    {"bursts", 3, 0.1, 0x017fbce7cab57244ULL},
    {"bursts", 11, 0.1, 0x22be1b30586739d9ULL},
    {"uniform-noise", 3, 0.1, 0x4bf874959384d771ULL},
    {"uniform-noise", 11, 0.1, 0x690ecb39ed851d0dULL},
    {"random-waypoint", 3, 0.1, 0x3a96d3d76ae91131ULL},
    {"random-waypoint", 11, 0.1, 0xf0d5c3951f303d9bULL},
    {"gauss-markov", 3, 0.1, 0x4e46432c1cee1e5bULL},
    {"gauss-markov", 11, 0.1, 0xf5a3971988278d9bULL},
    {"zigzag", 3, 0.1, 0x83a1f710b24db806ULL},
    {"zigzag", 11, 0.1, 0x83a1f710b24db806ULL},
};

TEST(ScenarioCorpus, MaterializationMatchesGoldenDigests) {
  std::size_t at_scale_one = 0;
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(std::string(golden.name) + " @ seed " + std::to_string(golden.seed) +
                 ", scale " + std::to_string(golden.scale));
    if (golden.scale != 1.0) {
      EXPECT_EQ(digest(starter_trace(golden.name, golden.seed, golden.scale)), golden.digest);
      continue;
    }
    ++at_scale_one;
    for (const Scenario& sc : starter_corpus()) {
      if (sc.name != golden.name) continue;
      Scenario seeded = sc;
      seeded.seed = golden.seed;
      EXPECT_EQ(digest(materialize(seeded, corpus_dir())), golden.digest);
    }
  }
  // Coverage: every starter at seeds {3, 11}; every generator starter at
  // seeds {3, 11} and scales {0.05, 0.1}.
  EXPECT_EQ(at_scale_one, 2 * starter_corpus().size());
  EXPECT_EQ(std::size(kGolden) - at_scale_one, 4 * generator_starters().size());
}

TEST(ScenarioCorpus, CommittedCsvDataRoundTrips) {
  // The CSV-backed scenarios exercise the trace importers through the
  // scenario layer; their data files live inside the corpus directory.
  const Scenario demand = load(corpus_dir() / "demand-csv.json");
  const trace::TraceFile demand_file = materialize(demand, corpus_dir());
  EXPECT_GT(demand_file.instance.horizon(), 0u);
  EXPECT_FALSE(demand_file.moving_client.has_value());

  const Scenario waypoints = load(corpus_dir() / "waypoints-csv.json");
  const trace::TraceFile waypoints_file = materialize(waypoints, corpus_dir());
  ASSERT_TRUE(waypoints_file.moving_client.has_value());
  EXPECT_GE(waypoints_file.moving_client->agents.size(), 2u);
}

}  // namespace
}  // namespace mobsrv::scenario
