// Tests for session checkpoint/restore (sim::Session::save + the restore
// constructor, core::SessionMultiplexer::checkpoint/restore) and the
// versioned trace:: checkpoint codec:
//   * save mid-run → restore → drain equals an uninterrupted run
//     bit-identically, for every registered algorithm and k ∈ {1, 4};
//   * the full loop survives the on-disk codec (encode → file → decode);
//   * corruption, truncation and version mismatch fail loudly;
//   * restore binds checkpoints to their specs — mismatches are rejected.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "algorithms/registry.hpp"
#include "core/session_multiplexer.hpp"
#include "ext/multi_server.hpp"
#include "io/bytes.hpp"
#include "sim/session.hpp"
#include "stats/rng.hpp"
#include "trace/checkpoint.hpp"

namespace mobsrv {
namespace {

namespace fs = std::filesystem;
using geo::Point;

sim::Instance hotspot_instance(std::uint64_t seed, std::size_t horizon = 60) {
  ext::MultiHotspotParams params;
  params.horizon = horizon;
  params.clusters = 3;
  stats::Rng rng(seed);
  return ext::make_multi_hotspot(params, rng);
}

sim::RunOptions streaming_options() {
  sim::RunOptions options;
  options.speed_factor = 1.5;
  options.record_positions = false;
  return options;
}

std::vector<Point> starts_for(const sim::Instance& instance, std::size_t k) {
  return ext::spread_starts(instance, static_cast<int>(k), 4.0);
}

/// The names that can drive a fleet of size k.
std::vector<std::string> names_for(std::size_t k) {
  return k == 1 ? alg::fleet_algorithm_names() : alg::fleet_native_names();
}

// ---------------------------------------------------------------------------
// Session-level checkpoint/restore.
// ---------------------------------------------------------------------------

TEST(SessionCheckpoint, RestoredRunEqualsUninterruptedForEveryAlgorithmAndFleetSize) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    const sim::Instance instance = hotspot_instance(17);
    for (const std::string& name : names_for(k)) {
      const sim::RunOptions options = streaming_options();

      // Reference: never interrupted.
      sim::FleetAlgorithmPtr ref_algo = alg::make_fleet_algorithm(name, 99);
      sim::Session reference(starts_for(instance, k), instance.params(), *ref_algo, options);
      for (std::size_t t = 0; t < instance.horizon(); ++t) reference.push(instance.step(t));

      // Interrupted at an awkward point (mid-MoveToMin-window), then resumed
      // with a FRESH algorithm instance fed only the checkpoint.
      sim::FleetAlgorithmPtr first_algo = alg::make_fleet_algorithm(name, 99);
      sim::Session first(starts_for(instance, k), instance.params(), *first_algo, options);
      const std::size_t cut = instance.horizon() / 2 + 1;
      for (std::size_t t = 0; t < cut; ++t) first.push(instance.step(t));
      const sim::SessionCheckpoint checkpoint = first.save();

      sim::FleetAlgorithmPtr resumed_algo = alg::make_fleet_algorithm(name, 99);
      sim::Session resumed(checkpoint, *resumed_algo);
      EXPECT_EQ(resumed.steps(), cut);
      for (std::size_t t = cut; t < instance.horizon(); ++t) resumed.push(instance.step(t));

      EXPECT_EQ(resumed.total_cost(), reference.total_cost()) << name << " k=" << k;
      EXPECT_EQ(resumed.move_cost(), reference.move_cost()) << name << " k=" << k;
      EXPECT_EQ(resumed.service_cost(), reference.service_cost()) << name << " k=" << k;
      EXPECT_EQ(resumed.fleet(), reference.fleet()) << name << " k=" << k;
      for (std::size_t i = 0; i < k; ++i)
        EXPECT_EQ(resumed.server_move_cost(i), reference.server_move_cost(i)) << name << " " << i;
    }
  }
}

TEST(SessionCheckpoint, OnlineAlgorithmRestoreConstructorWorks) {
  const sim::Instance instance = hotspot_instance(23);
  const sim::RunOptions options = streaming_options();
  const sim::AlgorithmPtr ref_algo = alg::make_algorithm("CoinFlip", 5);
  sim::Session reference(instance.start(), instance.params(), *ref_algo, options);
  for (std::size_t t = 0; t < instance.horizon(); ++t) reference.push(instance.step(t));

  const sim::AlgorithmPtr first_algo = alg::make_algorithm("CoinFlip", 5);
  sim::Session first(instance.start(), instance.params(), *first_algo, options);
  for (std::size_t t = 0; t < 20; ++t) first.push(instance.step(t));

  const sim::AlgorithmPtr resumed_algo = alg::make_algorithm("CoinFlip", 5);
  sim::Session resumed(first.save(), *resumed_algo);
  for (std::size_t t = 20; t < instance.horizon(); ++t) resumed.push(instance.step(t));
  EXPECT_EQ(resumed.total_cost(), reference.total_cost());
  EXPECT_EQ(resumed.position(), reference.position());
}

TEST(SessionCheckpoint, SaveRequiresStreamingSessions) {
  sim::ModelParams params;
  const sim::AlgorithmPtr algo = alg::make_algorithm("Lazy");
  sim::Session history_on(Point{0.0}, params, *algo);  // record_positions default
  EXPECT_THROW((void)history_on.save(), ContractViolation);
}

TEST(SessionCheckpoint, RestoreRejectsWrongAlgorithm) {
  const sim::Instance instance = hotspot_instance(2, 20);
  const sim::AlgorithmPtr algo = alg::make_algorithm("MtC");
  sim::Session session(instance.start(), instance.params(), *algo, streaming_options());
  session.push(instance.step(0));
  const sim::SessionCheckpoint checkpoint = session.save();
  const sim::AlgorithmPtr other = alg::make_algorithm("Lazy");
  EXPECT_THROW(sim::Session(checkpoint, *other), ContractViolation);
}

TEST(SessionCheckpoint, StatefulAlgorithmsRejectCorruptState) {
  const sim::Instance instance = hotspot_instance(3, 20);
  for (const std::string name : {"MoveToMin", "CoinFlip"}) {
    const sim::AlgorithmPtr algo = alg::make_algorithm(name, 1);
    sim::Session session(instance.start(), instance.params(), *algo, streaming_options());
    for (std::size_t t = 0; t < 10; ++t) session.push(instance.step(t));
    sim::SessionCheckpoint checkpoint = session.save();
    EXPECT_FALSE(checkpoint.algorithm_state.empty()) << name;
    checkpoint.algorithm_state.words.push_back(42);  // corrupt the layout
    const sim::AlgorithmPtr resumed = alg::make_algorithm(name, 1);
    EXPECT_THROW(sim::Session(checkpoint, *resumed), ContractViolation) << name;
  }
}

TEST(SessionCheckpoint, StatelessDefaultRejectsNonEmptyState) {
  const sim::Instance instance = hotspot_instance(4, 10);
  const sim::AlgorithmPtr algo = alg::make_algorithm("Lazy");
  sim::Session session(instance.start(), instance.params(), *algo, streaming_options());
  session.push(instance.step(0));
  sim::SessionCheckpoint checkpoint = session.save();
  checkpoint.algorithm_state.reals.push_back(1.0);
  const sim::AlgorithmPtr resumed = alg::make_algorithm("Lazy");
  EXPECT_THROW(sim::Session(checkpoint, *resumed), ContractViolation);
}

// ---------------------------------------------------------------------------
// Multiplexer checkpoint/restore through the on-disk codec.
// ---------------------------------------------------------------------------

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mobsrv_ckpt_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

/// A mixed population: every k = 1 algorithm plus k = 4 fleets, shared
/// workloads, heterogeneous horizons.
void populate(core::SessionMultiplexer& mux) {
  std::vector<std::shared_ptr<const sim::Instance>> workloads;
  for (std::uint64_t w = 0; w < 3; ++w)
    workloads.push_back(std::make_shared<const sim::Instance>(hotspot_instance(w, 24 + 8 * w)));
  const std::vector<std::string> singles = alg::algorithm_names();
  for (std::size_t s = 0; s < 24; ++s) {
    core::SessionSpec spec;
    spec.workload = workloads[s % workloads.size()];
    const bool fleet = s % 3 == 0;
    spec.fleet_size = fleet ? 4 : 1;
    spec.algorithm = fleet ? alg::fleet_native_names()[s % 2] : singles[s % singles.size()];
    if (fleet) spec.starts = ext::spread_starts(*spec.workload, 4, 6.0);
    spec.algo_seed = 100 + s;
    spec.speed_factor = 1.5;
    spec.tenant = "tenant-" + std::to_string(s);
    mux.add(std::move(spec));
  }
}

void expect_identical(const core::SessionMultiplexer& a, const core::SessionMultiplexer& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    const core::SessionStats sa = a.stats(s);
    const core::SessionStats sb = b.stats(s);
    EXPECT_EQ(sa.total_cost, sb.total_cost) << s;
    EXPECT_EQ(sa.move_cost, sb.move_cost) << s;
    EXPECT_EQ(sa.service_cost, sb.service_cost) << s;
    EXPECT_EQ(sa.positions, sb.positions) << s;
    EXPECT_EQ(sa.per_server_move_cost, sb.per_server_move_cost) << s;
    EXPECT_EQ(sa.steps, sb.steps) << s;
  }
}

TEST_F(CheckpointFileTest, CheckpointedMuxResumesBitIdenticallyThroughDisk) {
  par::ThreadPool pool(4);

  core::SessionMultiplexer reference(pool);
  populate(reference);
  reference.drain();

  core::SessionMultiplexer interrupted(pool);
  populate(interrupted);
  interrupted.step(13);  // mid-run, some sessions already done
  const fs::path path = dir_ / "mux.msck";
  trace::write_checkpoint(path, interrupted.checkpoint());

  core::SessionMultiplexer restored(pool);
  populate(restored);
  restored.restore(trace::read_checkpoint(path));
  EXPECT_EQ(restored.totals().steps, interrupted.totals().steps);
  restored.drain();

  expect_identical(reference, restored);
}

TEST_F(CheckpointFileTest, RestoreIsExactAtEveryCutPoint) {
  // Drain in two chunks around the checkpoint for several cut points —
  // catches off-by-one cursor handling.
  par::ThreadPool pool(2);
  core::SessionMultiplexer reference(pool);
  populate(reference);
  reference.drain();
  for (const std::size_t cut : {std::size_t{1}, std::size_t{23}, std::size_t{40}}) {
    core::SessionMultiplexer interrupted(pool);
    populate(interrupted);
    interrupted.step(cut);
    core::SessionMultiplexer restored(pool);
    populate(restored);
    restored.restore(interrupted.checkpoint());
    restored.drain();
    expect_identical(reference, restored);
  }
}

TEST_F(CheckpointFileTest, CodecRoundTripIsExact) {
  par::ThreadPool pool(1);
  core::SessionMultiplexer mux(pool);
  populate(mux);
  mux.step(7);
  const std::vector<core::SessionCheckpointRecord> records = mux.checkpoint();
  const std::string bytes = trace::encode_checkpoint(records);
  const std::vector<core::SessionCheckpointRecord> decoded =
      trace::decode_checkpoint(bytes, "test");
  // Bitwise-identical re-encoding is the round-trip contract.
  EXPECT_EQ(trace::encode_checkpoint(decoded), bytes);
  ASSERT_EQ(decoded.size(), records.size());
  EXPECT_EQ(decoded[0].tenant, records[0].tenant);
  EXPECT_EQ(decoded[0].engine.servers, records[0].engine.servers);
  EXPECT_EQ(decoded[0].engine.algorithm_state, records[0].engine.algorithm_state);
}

TEST_F(CheckpointFileTest, CorruptionAndTruncationAreLoud) {
  par::ThreadPool pool(1);
  core::SessionMultiplexer mux(pool);
  populate(mux);
  mux.step(5);
  const std::string bytes = trace::encode_checkpoint(mux.checkpoint());

  // Truncation anywhere must be detected.
  for (const double frac : {0.1, 0.5, 0.9}) {
    const std::string cut = bytes.substr(0, static_cast<std::size_t>(frac * bytes.size()));
    EXPECT_THROW((void)trace::decode_checkpoint(cut, "trunc"), trace::TraceError) << frac;
  }
  // Losing only the end tag must be detected too.
  EXPECT_THROW((void)trace::decode_checkpoint(bytes.substr(0, bytes.size() - 9), "trunc"),
               trace::TraceError);
  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)trace::decode_checkpoint(bad_magic, "magic"), trace::TraceError);
  // Version mismatch names both versions.
  std::string bad_version = bytes;
  bad_version[8] = 99;
  try {
    (void)trace::decode_checkpoint(bad_version, "version");
    FAIL() << "version mismatch not detected";
  } catch (const trace::TraceError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
  // Trailing garbage.
  EXPECT_THROW((void)trace::decode_checkpoint(bytes + "junk", "trailing"), trace::TraceError);
  // Empty file.
  EXPECT_THROW((void)trace::decode_checkpoint("", "empty"), trace::TraceError);
}

TEST_F(CheckpointFileTest, EveryTruncationIsATraceError) {
  par::ThreadPool pool(1);
  core::SessionMultiplexer mux(pool);
  populate(mux);
  mux.step(5);
  const std::string bytes = trace::encode_checkpoint(mux.checkpoint());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW((void)trace::decode_checkpoint(std::string_view(bytes).substr(0, keep), "cut"),
                 trace::TraceError)
        << keep;
  }
}

/// Decodes \p bytes and swallows TraceError: the only failure a damaged
/// file may produce. Any other exception escapes into the caller's
/// EXPECT_NO_THROW, and an out-of-bounds read trips asan/ubsan.
void decode_or_trace_error(const std::string& bytes) {
  try {
    (void)trace::decode_checkpoint(bytes, "sweep.msck");
  } catch (const trace::TraceError&) {
  }
}

TEST_F(CheckpointFileTest, EverySingleBitFlipDecodesOrIsATraceError) {
  par::ThreadPool pool(1);
  core::SessionMultiplexer mux(pool);
  populate(mux);
  mux.step(5);
  const std::string bytes = trace::encode_checkpoint(mux.checkpoint());
  std::string mutant = bytes;
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      mutant[offset] = static_cast<char>(bytes[offset] ^ (1 << bit));
      EXPECT_NO_THROW(decode_or_trace_error(mutant)) << offset << "." << bit;
    }
    mutant[offset] = bytes[offset];
  }
}

/// A record built by hand (not from a run, so no engine change can move
/// it): \p k servers and every kind of algorithm state.
core::SessionCheckpointRecord pinned_record(std::size_t k) {
  core::SessionCheckpointRecord record;
  record.tenant = "pinned-k" + std::to_string(k);
  record.algorithm = k == 1 ? "MtC" : "GreedyCenter";
  record.algo_seed = 0x0123456789abcdefULL;
  record.cursor = 9;
  record.horizon = 12;
  sim::SessionCheckpoint& engine = record.engine;
  engine.params.move_cost_weight = 4.0;
  engine.params.max_step = 0.75;
  engine.params.order = sim::ServiceOrder::kServeThenMove;
  engine.speed_factor = 1.5;
  engine.policy = sim::SpeedLimitPolicy::kClamp;
  engine.step = 9;
  engine.move_cost = 1.0 / 3.0;
  engine.service_cost = 2.5e-7;
  for (std::size_t i = 0; i < k; ++i) {
    engine.servers.push_back(Point{0.25 * double(i), -1.0 / double(i + 3)});
    engine.server_move.push_back(0.1 * double(i + 1));
  }
  engine.algorithm = record.algorithm;
  engine.algorithm_state.words = {7, 0xdeadbeefcafef00dULL};
  engine.algorithm_state.reals = {0.5, -1e-300};
  engine.algorithm_state.points = {Point{1.0, 2.0}, Point{-3.5}};
  return record;
}

/// The encoder's output, pinned by size and CRC-32. A round trip cannot
/// see an encoder and decoder that change together; this can.
TEST_F(CheckpointFileTest, EncodingIsPinned) {
  const std::string k1 = trace::encode_checkpoint({pinned_record(1)});
  EXPECT_EQ(k1.size(), 262u);
  EXPECT_EQ(io::crc32(k1), 0x6C209E93u);
  const std::string k4 = trace::encode_checkpoint({pinned_record(4)});
  EXPECT_EQ(k4.size(), 355u);
  EXPECT_EQ(io::crc32(k4), 0x142BD153u);
  EXPECT_EQ(trace::encode_checkpoint(trace::decode_checkpoint(k4, "pinned")), k4);
}

TEST_F(CheckpointFileTest, MissingFileIsLoud) {
  EXPECT_THROW((void)trace::read_checkpoint(dir_ / "nope.msck"), trace::TraceError);
}

TEST_F(CheckpointFileTest, RestoreRejectsMismatchedPopulation) {
  par::ThreadPool pool(1);
  core::SessionMultiplexer mux(pool);
  populate(mux);
  mux.step(3);
  const std::vector<core::SessionCheckpointRecord> records = mux.checkpoint();

  // Wrong session count.
  core::SessionMultiplexer empty_mux(pool);
  EXPECT_THROW(empty_mux.restore(records), ContractViolation);

  // Right count, wrong algorithm in slot 0.
  core::SessionMultiplexer skewed(pool);
  populate(skewed);
  std::vector<core::SessionCheckpointRecord> renamed = records;
  renamed[0].algorithm = "MtC";
  renamed[0].engine.algorithm = "MtC";
  EXPECT_THROW(skewed.restore(renamed), ContractViolation);

  // A failed restore must leave the target untouched and drainable.
  skewed.restore(records);
  skewed.drain();
  EXPECT_EQ(skewed.live(), 0u);
}

TEST_F(CheckpointFileTest, ChurnedMuxCheckpointCoversOpenSlotsOnly) {
  // The service closes tenants between periodic saves; a checkpoint taken
  // after churn must cover exactly the open slots and restore into a mux
  // with the same open population — closed slots never block a restart.
  par::ThreadPool pool(2);
  core::SessionMultiplexer reference(pool);
  populate(reference);
  reference.drain();

  core::SessionMultiplexer churned(pool);
  populate(churned);
  churned.step(7);
  churned.close(3);
  churned.close(11);
  const std::vector<core::SessionCheckpointRecord> records = churned.checkpoint();
  EXPECT_EQ(records.size(), churned.size() - 2);

  // A fresh process re-admits only the open tenants (same specs, same
  // order) — restore must line records up with the open slots.
  core::SessionMultiplexer restored(pool);
  populate(restored);
  restored.close(3);
  restored.close(11);
  restored.restore(records);
  restored.drain();
  for (std::size_t s = 0; s < restored.size(); ++s) {
    if (s == 3 || s == 11) continue;  // closed before any work in `restored`
    const core::SessionStats got = restored.stats(s);
    const core::SessionStats want = reference.stats(s);
    EXPECT_EQ(got.total_cost, want.total_cost) << s;
    EXPECT_EQ(got.positions, want.positions) << s;
    EXPECT_EQ(got.steps, want.steps) << s;
  }

  // A mismatched open population (records from before the churn) is loud.
  core::SessionMultiplexer stale(pool);
  populate(stale);
  EXPECT_THROW(stale.restore(records), ContractViolation);
}

TEST_F(CheckpointFileTest, AtomicWriteReplacesThePreviousSnapshotCleanly) {
  par::ThreadPool pool(2);
  core::SessionMultiplexer mux(pool);
  populate(mux);
  const fs::path path = dir_ / "periodic.msck";

  // Two consecutive periodic saves: the later one wins, no temp file
  // survives, and the result round-trips.
  mux.step(4);
  trace::write_checkpoint(path, mux.checkpoint());
  mux.step(4);
  const std::vector<core::SessionCheckpointRecord> latest = mux.checkpoint();
  trace::write_checkpoint(path, latest);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));

  const std::vector<core::SessionCheckpointRecord> read = trace::read_checkpoint(path);
  EXPECT_EQ(trace::encode_checkpoint(read), trace::encode_checkpoint(latest));

  // Unwritable destinations fail loudly and leave no temp file either.
  const fs::path bad = dir_ / "no-such-dir" / "x.msck";
  EXPECT_THROW(trace::write_checkpoint(bad, latest), trace::TraceError);
  EXPECT_FALSE(fs::exists(bad.string() + ".tmp"));
}

TEST_F(CheckpointFileTest, FailedRestoreMidRebuildLeavesMuxUntouched) {
  // A corrupt AlgorithmState passes the spec-binding verification (which
  // does not inspect state internals) and only throws inside the slot
  // rebuild — the multiplexer must come out exactly as it went in.
  par::ThreadPool pool(2);
  core::SessionMultiplexer reference(pool);
  populate(reference);
  reference.drain();

  core::SessionMultiplexer source(pool);
  populate(source);
  source.step(9);
  std::vector<core::SessionCheckpointRecord> records = source.checkpoint();
  // Corrupt a stateful session late in the population so earlier slots
  // were already rebuilt when the throw happens.
  std::size_t victim = records.size();
  for (std::size_t i = records.size(); i-- > 0;)
    if (records[i].algorithm == "MoveToMin" || records[i].algorithm == "CoinFlip") {
      victim = i;
      break;
    }
  ASSERT_LT(victim, records.size());
  ASSERT_GT(victim, 0u);
  records[victim].engine.algorithm_state.words.push_back(7);

  core::SessionMultiplexer target(pool);
  populate(target);
  target.step(9);
  const core::MuxTotals before = target.totals();
  EXPECT_THROW(target.restore(records), ContractViolation);
  EXPECT_EQ(target.totals().steps, before.steps);
  EXPECT_EQ(target.totals().total_cost, before.total_cost);
  EXPECT_EQ(target.live(), before.live);
  target.drain();
  expect_identical(reference, target);
}

}  // namespace
}  // namespace mobsrv
