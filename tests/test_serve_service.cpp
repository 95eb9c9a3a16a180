// End-to-end tests for the mobsrv_serve service loop (serve/service.hpp):
//   * the acceptance e2e — two tenants (k = 1 and k = 4) streamed in
//     batches, periodically checkpointed, killed mid-stream, restored, fed
//     the remainder: outcome frames and final totals are bit-identical to
//     an uninterrupted service;
//   * bounded in-flight queues bounce with explicit `busy` frames;
//   * malformed frames close only the offending tenant, never the process;
//   * admission failures reject the candidate only;
//   * tenant churn (open/close) between periodic saves restores to a
//     consistent tenant table;
//   * snapshot corruption/truncation fails loudly on restore;
//   * every --metrics-out cut equals a full render byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "algorithms/registry.hpp"
#include "fault/injector.hpp"
#include "io/json.hpp"
#include "obs/journal.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "stats/rng.hpp"
#include "trace/checkpoint.hpp"

namespace mobsrv {
namespace {

namespace fs = std::filesystem;
using geo::Point;
using serve::ExitReason;
using serve::Service;
using serve::ServiceOptions;

std::string open_line(const std::string& tenant, const std::string& algorithm, int dim,
                      std::size_t k = 1, std::uint64_t seed = 0) {
  io::Json doc = io::Json::object();
  doc.set("type", "open");
  doc.set("v", serve::kProtocolVersion);
  doc.set("tenant", tenant);
  doc.set("algorithm", algorithm);
  doc.set("seed", seed);
  doc.set("dim", dim);
  doc.set("k", k);
  doc.set("speed", 1.5);
  return doc.dump();
}

std::string req_line(const std::string& tenant, const std::vector<Point>& requests) {
  io::Json doc = io::Json::object();
  doc.set("type", "req");
  doc.set("tenant", tenant);
  io::Json batch = io::Json::array();
  for (const Point& p : requests) {
    io::Json coords = io::Json::array();
    for (int i = 0; i < p.dim(); ++i) coords.push_back(p[i]);
    batch.push_back(std::move(coords));
  }
  doc.set("batch", std::move(batch));
  return doc.dump();
}

/// Deterministic request stream: step t carries t % 3 requests with awkward
/// (non-dyadic) coordinates, so costs exercise real floating point.
std::vector<std::vector<Point>> make_batches(std::uint64_t seed, std::size_t steps, int dim) {
  std::vector<std::vector<Point>> batches(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t r = 0; r < t % 3; ++r) {
      Point p(dim);
      for (int c = 0; c < dim; ++c) {
        const std::uint64_t h = (seed + 1) * 6364136223846793005ULL +
                                t * 1442695040888963407ULL + r * 2862933555777941757ULL +
                                static_cast<std::uint64_t>(c) * 3935559000370003845ULL;
        p[c] = static_cast<double>(h % 2000) / 300.0 - 3.3;
      }
      batches[t].push_back(p);
    }
  }
  return batches;
}

struct RunOutput {
  ExitReason reason = ExitReason::kEof;
  std::vector<io::Json> frames;
};

RunOutput run_lines(Service& service, const std::vector<std::string>& lines) {
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  RunOutput result;
  result.reason = service.run(in, out);
  std::istringstream parse(out.str());
  std::string line;
  while (std::getline(parse, line))
    if (!line.empty()) result.frames.push_back(io::Json::parse(line));
  return result;
}

std::vector<io::Json> frames_of_type(const RunOutput& run, const std::string& type) {
  std::vector<io::Json> out;
  for (const io::Json& frame : run.frames)
    if (frame.at("type").as_string() == type) out.push_back(frame);
  return out;
}

/// This tenant's outcome frames, re-serialised — exact string equality is
/// the bit-identity check.
std::vector<std::string> outcomes_of(const RunOutput& run, const std::string& tenant) {
  std::vector<std::string> out;
  for (const io::Json& frame : run.frames)
    if (frame.at("type").as_string() == "outcome" && frame.at("tenant").as_string() == tenant)
      out.push_back(frame.dump());
  return out;
}

class ServeServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mobsrv_serve_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// The acceptance e2e: checkpoint, kill, restore, bit-identical remainder.
// ---------------------------------------------------------------------------

TEST_F(ServeServiceTest, KillAndRestoreContinuesBitIdentically) {
  constexpr std::size_t kSteps = 40;
  constexpr std::size_t kCut = 23;
  const std::string fleet_algo = alg::fleet_native_names().front();
  const auto alpha = make_batches(1, kSteps, 2);
  const auto bravo = make_batches(2, kSteps, 2);

  const auto feed = [&](std::vector<std::string>& lines, std::size_t from, std::size_t to) {
    for (std::size_t t = from; t < to; ++t) {
      lines.push_back(req_line("alpha", alpha[t]));
      lines.push_back(req_line("bravo", bravo[t]));
    }
  };
  const auto opens = [&](std::vector<std::string>& lines) {
    lines.push_back(open_line("alpha", "MtC", 2, 1, 11));
    lines.push_back(open_line("bravo", fleet_algo, 2, 4, 22));
  };

  // Reference: one service, never interrupted.
  ServiceOptions ref_options;
  ref_options.threads = 2;
  Service reference(ref_options);
  std::vector<std::string> ref_lines;
  opens(ref_lines);
  feed(ref_lines, 0, kSteps);
  ref_lines.push_back(R"({"type":"shutdown"})");
  const RunOutput ref = run_lines(reference, ref_lines);
  ASSERT_EQ(ref.reason, ExitReason::kShutdown);
  ASSERT_EQ(frames_of_type(ref, "error").size(), 0u);
  ASSERT_EQ(outcomes_of(ref, "alpha").size(), kSteps);
  ASSERT_EQ(outcomes_of(ref, "bravo").size(), kSteps);

  // Interrupted: half the stream, an explicit checkpoint, then a hard kill.
  const fs::path snapshot = dir_ / "svc.msrvss";
  ServiceOptions options;
  options.threads = 2;
  options.snapshot_path = snapshot;
  Service first(options);
  std::vector<std::string> first_lines;
  opens(first_lines);
  feed(first_lines, 0, kCut);
  first_lines.push_back(R"({"type":"checkpoint"})");
  first_lines.push_back(R"({"type":"kill"})");
  const RunOutput half = run_lines(first, first_lines);
  EXPECT_EQ(half.reason, ExitReason::kKill);
  EXPECT_EQ(frames_of_type(half, "bye").size(), 0u) << "kill skips the graceful path";
  ASSERT_EQ(frames_of_type(half, "checkpointed").size(), 1u);
  ASSERT_TRUE(fs::exists(snapshot));

  // A fresh process restores and consumes the remainder.
  Service second(options);
  second.restore(snapshot);
  EXPECT_EQ(second.mux().size(), 2u);
  std::vector<std::string> rest_lines;
  feed(rest_lines, kCut, kSteps);
  rest_lines.push_back(R"({"type":"shutdown"})");
  const RunOutput rest = run_lines(second, rest_lines);
  ASSERT_EQ(rest.reason, ExitReason::kShutdown);
  ASSERT_EQ(frames_of_type(rest, "error").size(), 0u);

  // Outcome frames concatenate to exactly the uninterrupted stream.
  for (const std::string tenant : {"alpha", "bravo"}) {
    std::vector<std::string> stitched = outcomes_of(half, tenant);
    const std::vector<std::string> tail = outcomes_of(rest, tenant);
    stitched.insert(stitched.end(), tail.begin(), tail.end());
    EXPECT_EQ(stitched, outcomes_of(ref, tenant)) << tenant;
  }

  // And the final engine state agrees bit-for-bit.
  const std::vector<core::SessionStats> want = reference.mux().snapshot();
  const std::vector<core::SessionStats> got = second.mux().snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(got[s].tenant, want[s].tenant);
    EXPECT_EQ(got[s].steps, want[s].steps);
    EXPECT_EQ(got[s].total_cost, want[s].total_cost);
    EXPECT_EQ(got[s].move_cost, want[s].move_cost);
    EXPECT_EQ(got[s].service_cost, want[s].service_cost);
    EXPECT_EQ(got[s].positions, want[s].positions);
  }
}

TEST_F(ServeServiceTest, PeriodicCheckpointsFireAtQuiescentPoints) {
  const fs::path snapshot = dir_ / "periodic.msrvss";
  ServiceOptions options;
  options.snapshot_path = snapshot;
  options.checkpoint_every = 3;
  options.max_inflight = 2;  // small cap forces pumps mid-burst
  Service service(options);

  const auto batches = make_batches(5, 10, 1);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 1));
  for (const auto& batch : batches) lines.push_back(req_line("alpha", batch));
  lines.push_back(R"({"type":"shutdown"})");
  const RunOutput run = run_lines(service, lines);
  ASSERT_EQ(run.reason, ExitReason::kShutdown);

  // Cadence saves during the burst, plus the forced save on shutdown.
  EXPECT_GE(frames_of_type(run, "checkpointed").size(), 2u);
  // Every req was either consumed (outcome) or bounced (busy) — no drops.
  const std::size_t outcomes = outcomes_of(run, "alpha").size();
  const std::size_t busy = frames_of_type(run, "busy").size();
  EXPECT_EQ(outcomes + busy, batches.size());
  EXPECT_GT(busy, 0u);

  // The final snapshot restores to the fully drained state.
  Service restored(options);
  restored.restore(snapshot);
  EXPECT_EQ(restored.mux().stats(0).steps, outcomes);
  EXPECT_EQ(restored.mux().stats(0).total_cost, service.mux().stats(0).total_cost);
}

// ---------------------------------------------------------------------------
// Backpressure.
// ---------------------------------------------------------------------------

TEST_F(ServeServiceTest, FullQueueBouncesWithExplicitBusyFrames) {
  ServiceOptions options;
  options.max_inflight = 2;
  Service service(options);

  const auto batches = make_batches(7, 7, 1);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 1));
  for (const auto& batch : batches) lines.push_back(req_line("alpha", batch));
  lines.push_back(R"({"type":"shutdown"})");
  const RunOutput run = run_lines(service, lines);
  ASSERT_EQ(run.reason, ExitReason::kShutdown);

  const std::vector<io::Json> busy = frames_of_type(run, "busy");
  ASSERT_GT(busy.size(), 0u);
  for (const io::Json& frame : busy) {
    EXPECT_EQ(frame.at("tenant").as_string(), "alpha");
    EXPECT_EQ(frame.at("limit").as_uint64(), 2u);
    EXPECT_GE(frame.at("queued").as_uint64(), 2u);
    EXPECT_GT(frame.at("line").as_uint64(), 1u);
  }
  EXPECT_EQ(outcomes_of(run, "alpha").size() + busy.size(), batches.size());
}

// ---------------------------------------------------------------------------
// Error isolation.
// ---------------------------------------------------------------------------

TEST_F(ServeServiceTest, MalformedFrameClosesOnlyTheOffendingTenant) {
  Service service(ServiceOptions{});
  const std::vector<std::string> lines = {
      open_line("alpha", "MtC", 1),                          // line 1
      open_line("bravo", "Lazy", 1),                         // line 2
      req_line("alpha", {Point{0.5}}),                       // line 3
      req_line("bravo", {Point{0.25}}),                      // line 4
      R"({"type":"req","tenant":"alpha","batc":[[1]]})",     // line 5: typo'd member
      req_line("alpha", {Point{0.75}}),                      // line 6: alpha is gone now
      req_line("bravo", {Point{0.125}}),                     // line 7: bravo unaffected
      R"({"type":"shutdown"})",                              // line 8
  };
  const RunOutput run = run_lines(service, lines);
  ASSERT_EQ(run.reason, ExitReason::kShutdown) << "one bad tenant never kills the process";

  const std::vector<io::Json> errors = frames_of_type(run, "error");
  ASSERT_EQ(errors.size(), 2u);
  // The typo closes alpha, with the offending line number.
  EXPECT_EQ(errors[0].at("line").as_uint64(), 5u);
  EXPECT_EQ(errors[0].at("tenant").as_string(), "alpha");
  EXPECT_TRUE(errors[0].at("closed").as_bool());
  EXPECT_NE(errors[0].at("message").as_string().find("unknown member"), std::string::npos);
  // The follow-up req to the closed tenant is an unattached error.
  EXPECT_EQ(errors[1].at("line").as_uint64(), 6u);
  EXPECT_FALSE(errors[1].at("closed").as_bool());

  // Alpha's accepted step still produced its outcome, then a final bill.
  EXPECT_EQ(outcomes_of(run, "alpha").size(), 1u);
  const std::vector<io::Json> closed = frames_of_type(run, "closed");
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].at("tenant").as_string(), "alpha");
  EXPECT_EQ(closed[0].at("steps").as_uint64(), 1u);
  // Bravo streamed through untouched.
  EXPECT_EQ(outcomes_of(run, "bravo").size(), 2u);
}

TEST_F(ServeServiceTest, UnattributableGarbageClosesNothing) {
  Service service(ServiceOptions{});
  const RunOutput run = run_lines(service, {
                                               open_line("alpha", "MtC", 1),
                                               "{this is not json",
                                               req_line("alpha", {Point{1.0}}),
                                               R"({"type":"shutdown"})",
                                           });
  ASSERT_EQ(run.reason, ExitReason::kShutdown);
  const std::vector<io::Json> errors = frames_of_type(run, "error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].at("line").as_uint64(), 2u);
  EXPECT_EQ(errors[0].find("tenant"), nullptr);
  EXPECT_EQ(outcomes_of(run, "alpha").size(), 1u) << "alpha survived the garbage line";
  EXPECT_EQ(frames_of_type(run, "closed").size(), 0u);
}

TEST_F(ServeServiceTest, AdmissionFailuresRejectTheCandidateOnly) {
  Service service(ServiceOptions{});
  const RunOutput run = run_lines(service, {
                                               open_line("alpha", "MtC", 1, 1, 7),
                                               open_line("alpha", "Lazy", 1),   // duplicate name
                                               open_line("bad", "NoSuchAlgo", 1),
                                               open_line("worse", "MtC", 1, 4),  // k=4 needs fleet-native
                                               req_line("alpha", {Point{2.0}}),
                                               R"({"type":"shutdown"})",
                                           });
  ASSERT_EQ(run.reason, ExitReason::kShutdown);
  ASSERT_EQ(frames_of_type(run, "opened").size(), 1u);
  const std::vector<io::Json> errors = frames_of_type(run, "error");
  ASSERT_EQ(errors.size(), 3u);
  for (const io::Json& frame : errors) EXPECT_FALSE(frame.at("closed").as_bool());
  EXPECT_NE(errors[0].at("message").as_string().find("already open"), std::string::npos);
  // The original alpha is untouched and still serving.
  EXPECT_EQ(outcomes_of(run, "alpha").size(), 1u);
  EXPECT_EQ(service.mux().size(), 1u);
}

TEST_F(ServeServiceTest, OpenedFrameEchoesTheAdmittedSpecWithDefaults) {
  Service service(ServiceOptions{});
  const RunOutput run =
      run_lines(service, {open_line("alpha", "MtC", 2), R"({"type":"shutdown"})"});
  const std::vector<io::Json> opened = frames_of_type(run, "opened");
  ASSERT_EQ(opened.size(), 1u);
  EXPECT_EQ(opened[0].at("k").as_uint64(), 1u);
  EXPECT_EQ(opened[0].at("policy").as_string(), "clamp");
  EXPECT_EQ(opened[0].at("order").as_string(), "move-then-serve");
  ASSERT_EQ(opened[0].at("starts").as_array().size(), 1u);
}

// ---------------------------------------------------------------------------
// Close / stats frames.
// ---------------------------------------------------------------------------

TEST_F(ServeServiceTest, CloseDrainsAndReportsTheFinalBill) {
  Service service(ServiceOptions{});
  const auto batches = make_batches(3, 4, 1);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 1));
  for (const auto& batch : batches) lines.push_back(req_line("alpha", batch));
  lines.push_back(R"({"type":"close","tenant":"alpha"})");
  lines.push_back(req_line("alpha", {Point{1.0}}));  // closed → unknown tenant
  lines.push_back(R"({"type":"stats"})");
  lines.push_back(R"({"type":"shutdown"})");
  const RunOutput run = run_lines(service, lines);
  ASSERT_EQ(run.reason, ExitReason::kShutdown);

  EXPECT_EQ(outcomes_of(run, "alpha").size(), batches.size());
  const std::vector<io::Json> closed = frames_of_type(run, "closed");
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].at("steps").as_uint64(), batches.size());
  EXPECT_EQ(closed[0].at("total").as_double(),
            closed[0].at("move").as_double() + closed[0].at("service").as_double());

  const std::vector<io::Json> errors = frames_of_type(run, "error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].at("message").as_string().find("unknown tenant"), std::string::npos);

  // The closed tenant's accounting survives in stats and the farewell.
  const std::vector<io::Json> stats = frames_of_type(run, "stats");
  ASSERT_EQ(stats.size(), 1u);
  ASSERT_EQ(stats[0].at("tenants").as_array().size(), 1u);
  EXPECT_TRUE(stats[0].at("tenants").as_array()[0].at("closed").as_bool());
  EXPECT_EQ(stats[0].at("steps").as_uint64(), batches.size());
  const std::vector<io::Json> bye = frames_of_type(run, "bye");
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(bye[0].at("reason").as_string(), "shutdown");
  EXPECT_EQ(bye[0].at("sessions").as_uint64(), 1u);
}

TEST_F(ServeServiceTest, CheckpointFrameWithoutSnapshotPathIsALoudNoOp) {
  Service service(ServiceOptions{});
  const RunOutput run = run_lines(service, {R"({"type":"checkpoint"})"});
  ASSERT_EQ(run.reason, ExitReason::kEof);
  const std::vector<io::Json> errors = frames_of_type(run, "error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].at("message").as_string().find("disabled"), std::string::npos);
}

TEST_F(ServeServiceTest, PresetStopFlagDrainsGracefully) {
  std::atomic<bool> stop{true};
  ServiceOptions options;
  options.stop = &stop;
  Service service(options);
  const RunOutput run = run_lines(service, {open_line("alpha", "MtC", 1)});
  EXPECT_EQ(run.reason, ExitReason::kSignal);
  ASSERT_EQ(run.frames.size(), 1u) << "nothing processed after the stop flag";
  EXPECT_EQ(run.frames[0].at("type").as_string(), "bye");
  EXPECT_EQ(run.frames[0].at("reason").as_string(), "signal");
}

// ---------------------------------------------------------------------------
// Tenant churn racing periodic saves (the restart surface stays consistent).
// ---------------------------------------------------------------------------

TEST_F(ServeServiceTest, ChurnedTenantTableRestoresConsistently) {
  const fs::path snapshot = dir_ / "churn.msrvss";
  ServiceOptions options;
  options.snapshot_path = snapshot;
  const auto alpha = make_batches(11, 5, 1);
  const auto bravo = make_batches(12, 7, 1);

  // Reference for bravo: an uninterrupted lone run of the same stream.
  Service reference(ServiceOptions{});
  std::vector<std::string> ref_lines;
  ref_lines.push_back(open_line("bravo", "MoveToMin", 1, 1, 5));
  for (const auto& batch : bravo) ref_lines.push_back(req_line("bravo", batch));
  ref_lines.push_back(R"({"type":"shutdown"})");
  ASSERT_EQ(run_lines(reference, ref_lines).reason, ExitReason::kShutdown);

  // Churn: alpha opens, streams, and closes between saves; bravo persists.
  Service first(options);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 1, 1, 3));
  for (const auto& batch : alpha) lines.push_back(req_line("alpha", batch));
  lines.push_back(R"({"type":"checkpoint"})");  // save #1: alpha only
  lines.push_back(open_line("bravo", "MoveToMin", 1, 1, 5));
  for (std::size_t t = 0; t < 3; ++t) lines.push_back(req_line("bravo", bravo[t]));
  lines.push_back(R"({"type":"close","tenant":"alpha"})");
  lines.push_back(R"({"type":"checkpoint"})");  // save #2: bravo only
  lines.push_back(R"({"type":"kill"})");
  const RunOutput churn = run_lines(first, lines);
  ASSERT_EQ(churn.reason, ExitReason::kKill);
  ASSERT_EQ(frames_of_type(churn, "checkpointed").size(), 2u);

  // The restored table holds exactly the tenants open at the last save.
  Service second(options);
  second.restore(snapshot);
  ASSERT_EQ(second.mux().size(), 1u);
  EXPECT_EQ(second.mux().stats(0).tenant, "bravo");
  EXPECT_EQ(second.mux().stats(0).steps, 3u);

  // A NEW tenant may reuse the closed name, and bravo finishes bit-identically.
  std::vector<std::string> rest;
  rest.push_back(open_line("alpha", "Lazy", 1));
  for (std::size_t t = 3; t < bravo.size(); ++t) rest.push_back(req_line("bravo", bravo[t]));
  rest.push_back(R"({"type":"shutdown"})");
  const RunOutput tail = run_lines(second, rest);
  ASSERT_EQ(tail.reason, ExitReason::kShutdown);
  ASSERT_EQ(frames_of_type(tail, "opened").size(), 1u);

  const core::SessionStats got = second.mux().stats(0);
  const core::SessionStats want = reference.mux().stats(0);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.total_cost, want.total_cost);
  EXPECT_EQ(got.move_cost, want.move_cost);
  EXPECT_EQ(got.service_cost, want.service_cost);
  EXPECT_EQ(got.positions, want.positions);
}

// The open tenants in slot order and the engine state they own: what a
// restore from the chain must reproduce.
void expect_chain_matches_live(const Service& service, const fs::path& snapshot,
                               const std::string& where) {
  const serve::ServiceSnapshot saved = serve::read_snapshot(snapshot);
  const auto& live = service.table().entries();
  ASSERT_EQ(saved.tenants.size(), live.size()) << where;
  for (std::size_t i = 0; i < live.size(); ++i)
    ASSERT_EQ(serve::tenant_spec_to_json(saved.tenants[i]).dump(),
              serve::tenant_spec_to_json(live[i]->spec).dump())
        << where << ", entry " << i;
  ASSERT_EQ(trace::encode_checkpoint(saved.records),
            trace::encode_checkpoint(service.mux().checkpoint()))
      << where;
}

// Every save of a churning service writes a chain that reads back as the
// live table. Each round is one run() ending in a graceful save, after
// which the chain must match. The mix covers tenants opened and closed
// between two saves, saved tenants closed later (by close frames, a
// dim-mismatch error and the idle reaper), closed names reopened under new
// slots, a delta append failed by the fault plan (its retry writes a base),
// compactions, and a restore mid-run.
TEST_F(ServeServiceTest, SnapshotChainMatchesTheLiveTableThroughChurn) {
  fault::Injector injector(3);
  fault::SiteRule rule;
  rule.site = fault::kSiteSnapshotDeltaAppend;
  rule.nth = 12;
  injector.add_rule(rule);
  ServiceOptions options;
  options.snapshot_path = dir_ / "churn.msrvss";
  options.compact_ratio = 3.0;
  options.idle_timeout = 100;
  options.durable = false;
  options.faults = &injector;
  options.retry_base_ms = 0;
  auto service = std::make_unique<Service>(options);

  stats::Rng rng(50);
  std::size_t next_name = 0;
  std::vector<std::string> closed_names;
  std::size_t retried_rounds = 0;
  std::size_t reaped = 0;
  std::size_t reopened = 0;
  std::size_t deltas = 0;
  std::size_t bases = 0;
  constexpr int kRounds = 60;
  for (int round = 0; round < kRounds; ++round) {
    if (round == kRounds / 2) {
      reaped += service->telemetry().idle_timeouts.value();
      service = std::make_unique<Service>(options);
      service->restore(options.snapshot_path);
    }
    std::vector<std::string> open;  // names open at the start of the round (all saved)
    for (const auto& tenant : service->table().entries()) open.push_back(tenant->spec.tenant);
    const auto pick = [&]() -> std::string {
      // Mostly the recent tenants: the older ones idle until reaped.
      const auto n = static_cast<std::int64_t>(open.size());
      const std::int64_t i = rng.uniform_int(std::max<std::int64_t>(0, n - 6), n - 1);
      return open[static_cast<std::size_t>(i)];
    };
    const auto forget = [&](const std::string& name) {
      open.erase(std::find(open.begin(), open.end(), name));
      closed_names.push_back(name);
    };
    std::vector<std::string> lines;
    // A transient tenant: opened, stepped and closed between two saves.
    const std::string transient = "x" + std::to_string(next_name++);
    lines.push_back(open_line(transient, "MtC", 1));
    lines.push_back(req_line(transient, {Point{0.5}}));
    lines.push_back(R"({"type":"close","tenant":")" + transient + R"("})");
    for (int i = 0; i < 3; ++i) {
      // Reopen a closed name now and then; its new slot is past the watermark.
      std::string name;
      if (!closed_names.empty() && rng.uniform_int(0, 3) == 0) {
        const auto at = closed_names.begin() + rng.uniform_int(
                            0, static_cast<std::int64_t>(closed_names.size()) - 1);
        name = *at;
        closed_names.erase(at);
        ++reopened;
      } else {
        name = "t" + std::to_string(next_name++);
      }
      const bool fleet = i == 2;  // one k = 3 tenant per round
      lines.push_back(open_line(name, fleet ? alg::fleet_native_names().front() : "MtC", 1,
                                fleet ? 3 : 1, static_cast<std::uint64_t>(round)));
      open.push_back(name);
    }
    for (int frame = 0; frame < 30 && !open.empty(); ++frame) {
      const std::int64_t roll = rng.uniform_int(0, 99);
      if (roll < 88) {
        lines.push_back(req_line(pick(), {Point{rng.uniform(-3.0, 3.0)}}));
      } else if (roll < 94) {
        const std::string name = pick();
        lines.push_back(R"({"type":"close","tenant":")" + name + R"("})");
        forget(name);
      } else if (roll < 96) {
        const std::string name = pick();  // wrong dim: the error path closes it
        lines.push_back(req_line(name, {Point{1.0, 2.0}}));
        forget(name);
      } else {
        lines.push_back(R"({"type":"checkpoint"})");
      }
    }
    const std::uint64_t retries_before = service->telemetry().retries.value();
    const RunOutput run = run_lines(*service, lines);
    ASSERT_EQ(run.reason, ExitReason::kEof);
    std::size_t run_bases = 0;
    for (const io::Json& save : frames_of_type(run, "checkpointed"))
      (save.at("mode").as_string() == "base" ? run_bases : deltas) += 1;
    bases += run_bases;
    if (service->telemetry().retries.value() != retries_before) {
      ++retried_rounds;
      EXPECT_GT(run_bases, 0u) << "round " << round << ": the failed append's retry wrote a base";
    }
    expect_chain_matches_live(*service, options.snapshot_path, "round " + std::to_string(round));
    if (HasFatalFailure()) return;
  }
  reaped += service->telemetry().idle_timeouts.value();

  EXPECT_EQ(injector.stats(fault::kSiteSnapshotDeltaAppend).fired, 1u);
  EXPECT_EQ(retried_rounds, 1u);
  EXPECT_GT(deltas, 2u * static_cast<std::size_t>(kRounds) / 3);
  EXPECT_GT(bases, 3u);  // first save, the retry, compactions, the restore
  EXPECT_GT(reaped, 0u);
  EXPECT_GT(reopened, 0u);
}

// Erase locates the entry by slot (binary search over the slot-ordered
// entries); the order, both lookup indexes and from_slot() must survive
// erasing the first, a middle and the last entry.
TEST(TenantTable, EraseKeepsSlotOrderAndIndexes) {
  par::ThreadPool pool(1);
  core::SessionMultiplexer mux(pool);
  serve::TenantTable table;
  std::vector<std::string> names;
  for (int i = 0; i < 7; ++i) {
    names.push_back(std::string("t") + std::to_string(i));
    serve::TenantSpec spec = serve::parse_client_frame(open_line(names.back(), "Lazy", 1)).open;
    ASSERT_EQ(table.admit(std::move(spec), mux).slot, static_cast<std::size_t>(i));
  }
  std::vector<std::size_t> live = {0, 1, 2, 3, 4, 5, 6};
  for (const std::size_t slot : {std::size_t{0}, std::size_t{3}, std::size_t{6}}) {
    table.erase(names[slot]);  // first, then a middle entry, then the last
    live.erase(std::find(live.begin(), live.end(), slot));
    EXPECT_EQ(table.find(names[slot]), nullptr);
    EXPECT_EQ(table.find_slot(slot), nullptr);
    ASSERT_EQ(table.size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      const serve::Tenant& tenant = *table.entries()[i];
      EXPECT_EQ(tenant.slot, live[i]);
      EXPECT_EQ(tenant.spec.tenant, names[live[i]]);
      EXPECT_EQ(table.find(names[live[i]]), &tenant);
      EXPECT_EQ(table.find_slot(live[i]), &tenant);
      // The suffix from a live slot starts at its entry.
      EXPECT_EQ(table.from_slot(live[i]).size(), live.size() - i);
      EXPECT_EQ(table.from_slot(live[i]).front().get(), &tenant);
    }
    EXPECT_TRUE(table.from_slot(7).empty());
  }
  table.erase("t3");  // already gone: a no-op
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.from_slot(3).front()->slot, 4u);  // from an erased slot: the next one
  EXPECT_EQ(table.from_slot(0).size(), 4u);
}

// ---------------------------------------------------------------------------
// Snapshot integrity.
// ---------------------------------------------------------------------------

TEST_F(ServeServiceTest, CorruptSnapshotsFailLoudlyOnRestore) {
  const fs::path snapshot = dir_ / "good.msrvss";
  ServiceOptions options;
  options.snapshot_path = snapshot;
  Service service(options);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 2, 1, 9));
  for (const auto& batch : make_batches(9, 6, 2)) lines.push_back(req_line("alpha", batch));
  lines.push_back(R"({"type":"shutdown"})");
  ASSERT_EQ(run_lines(service, lines).reason, ExitReason::kShutdown);
  ASSERT_TRUE(fs::exists(snapshot));

  std::ifstream in(snapshot, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const auto write_variant = [&](const std::string& name, const std::string& content) {
    const fs::path path = dir_ / name;
    std::ofstream out(path, std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    return path;
  };

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  std::string bad_version = bytes;
  bad_version[8] = 99;
  // Flip one payload byte of the (complete) base segment: the size fields
  // stay intact, so the reader sees a whole segment whose CRC lies.
  std::string bad_crc = bytes;
  bad_crc[bytes.size() / 2] ^= 0x01;
  for (const fs::path& path :
       {write_variant("magic", bad_magic), write_variant("version", bad_version),
        write_variant("trunc", bytes.substr(0, bytes.size() / 2)),
        write_variant("no-tag", bytes.substr(0, bytes.size() - 1)),
        write_variant("bad-crc", bad_crc), write_variant("empty", "")}) {
    Service fresh(options);
    EXPECT_THROW(fresh.restore(path), trace::TraceError) << path;
  }
  EXPECT_THROW(Service(options).restore(dir_ / "missing.msrvss"), trace::TraceError);

  // Trailing bytes that do not form a complete segment are a torn append
  // (a crash mid-delta), dropped by design: the chain up to them restores.
  {
    Service fresh(options);
    fresh.restore(write_variant("torn-append", bytes + "x"));
    EXPECT_EQ(fresh.mux().stats(0).total_cost, service.mux().stats(0).total_cost);
  }

  // The pristine file still restores.
  Service fresh(options);
  fresh.restore(snapshot);
  EXPECT_EQ(fresh.mux().stats(0).total_cost, service.mux().stats(0).total_cost);
}

TEST_F(ServeServiceTest, SnapshotSavesAreAtomic) {
  // Two consecutive saves leave no temp file behind and the second wins.
  const fs::path snapshot = dir_ / "atomic.msrvss";
  ServiceOptions options;
  options.snapshot_path = snapshot;
  Service service(options);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 1));
  lines.push_back(req_line("alpha", {Point{1.5}}));
  lines.push_back(R"({"type":"checkpoint"})");
  lines.push_back(req_line("alpha", {Point{-2.5}}));
  lines.push_back(R"({"type":"shutdown"})");
  ASSERT_EQ(run_lines(service, lines).reason, ExitReason::kShutdown);
  EXPECT_FALSE(fs::exists(snapshot.string() + ".tmp"));

  Service restored(options);
  restored.restore(snapshot);
  EXPECT_EQ(restored.mux().stats(0).steps, 2u) << "the shutdown-time save wins";
}

// ---------------------------------------------------------------------------
// Telemetry: metrics frames, enriched stats, the NDJSON snapshot file.
// ---------------------------------------------------------------------------

std::uint64_t metric_value(const io::Json& frame, const std::string& name) {
  for (const io::Json& metric : frame.at("metrics").as_array())
    if (metric.at("name").as_string() == name) return metric.at("value").as_uint64();
  ADD_FAILURE() << "metric " << name << " missing from frame";
  return 0;
}

/// reqs == outcomes + busys, both service-wide and per tenant — the serve
/// accounting invariant at any quiescent point (handle_metrics pumps
/// first, so a metrics frame IS a quiescent point).
void expect_req_invariant(const io::Json& metrics) {
  EXPECT_EQ(metric_value(metrics, "serve.reqs_total"),
            metric_value(metrics, "serve.outcomes_total") +
                metric_value(metrics, "serve.busys_total"));
  for (const io::Json& tenant : metrics.at("tenants").as_array())
    EXPECT_EQ(tenant.at("reqs").as_uint64(),
              tenant.at("outcomes").as_uint64() + tenant.at("busys").as_uint64())
        << tenant.at("tenant").as_string();
}

TEST_F(ServeServiceTest, MetricsFrameInvariantHoldsAcrossKillAndRestore) {
  constexpr std::size_t kSteps = 30;
  constexpr std::size_t kCut = 17;
  const auto alpha = make_batches(7, kSteps, 2);
  const auto bravo = make_batches(8, kSteps, 2);

  const fs::path snapshot = dir_ / "svc.msrvss";
  ServiceOptions options;
  options.snapshot_path = snapshot;
  options.max_inflight = 2;  // small cap: some reqs bounce, so busys > 0
  Service first(options);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 2, 1, 31));
  lines.push_back(open_line("bravo", alg::fleet_native_names().front(), 2, 4, 32));
  for (std::size_t t = 0; t < kCut; ++t) {
    lines.push_back(req_line("alpha", alpha[t]));
    lines.push_back(req_line("bravo", bravo[t]));
  }
  lines.push_back(R"({"type":"metrics"})");
  lines.push_back(R"({"type":"checkpoint"})");
  lines.push_back(R"({"type":"kill"})");
  const RunOutput half = run_lines(first, lines);
  ASSERT_EQ(half.reason, ExitReason::kKill);
  const auto half_metrics = frames_of_type(half, "metrics");
  ASSERT_EQ(half_metrics.size(), 1u);
  expect_req_invariant(half_metrics.front());
  EXPECT_EQ(metric_value(half_metrics.front(), "serve.tenants_opened_total"), 2u);
  EXPECT_EQ(metric_value(half_metrics.front(), "serve.tenants_open"), 2u);
  EXPECT_GT(metric_value(half_metrics.front(), "serve.reqs_total"), 0u);

  // Counters are process-local: the restored service starts fresh, and the
  // invariant must hold for the second process's own traffic too.
  Service second(options);
  second.restore(snapshot);
  std::vector<std::string> rest;
  const std::size_t resumed = second.mux().stats(0).steps;
  for (std::size_t t = resumed; t < kSteps; ++t) {
    rest.push_back(req_line("alpha", alpha[t]));
    rest.push_back(req_line("bravo", bravo[t]));
  }
  rest.push_back(R"({"type":"metrics"})");
  rest.push_back(R"({"type":"shutdown"})");
  const RunOutput done = run_lines(second, rest);
  ASSERT_EQ(done.reason, ExitReason::kShutdown);
  const auto done_metrics = frames_of_type(done, "metrics");
  ASSERT_EQ(done_metrics.size(), 1u);
  expect_req_invariant(done_metrics.front());
  // Restored tenants count toward the open gauge but not opened_total.
  EXPECT_EQ(metric_value(done_metrics.front(), "serve.tenants_opened_total"), 0u);
  EXPECT_EQ(metric_value(done_metrics.front(), "serve.tenants_open"), 2u);
  EXPECT_GT(metric_value(done_metrics.front(), "serve.outcomes_total"), 0u);
}

TEST_F(ServeServiceTest, StatsFrameKeepsV1FieldsAndAppendsTelemetry) {
  Service service(ServiceOptions{});
  // First run: accept + consume two steps (EOF drains). Second run: ask for
  // stats at a quiescent point, so the telemetry shows settled numbers.
  ASSERT_EQ(run_lines(service, {open_line("alpha", "MtC", 1),
                                req_line("alpha", {Point{1.5}}),
                                req_line("alpha", {Point{-0.5}})})
                .reason,
            ExitReason::kEof);
  const RunOutput run = run_lines(service, {R"({"type":"stats"})"});
  const auto stats = frames_of_type(run, "stats");
  ASSERT_EQ(stats.size(), 1u);
  const io::Json& frame = stats.front();

  // v1 members, unchanged names and meaning.
  for (const char* key : {"tenants", "sessions", "live", "steps", "move", "service", "total"})
    EXPECT_NE(frame.find(key), nullptr) << key;
  // Appended aggregate telemetry.
  EXPECT_NE(frame.find("queue_depth"), nullptr);
  EXPECT_NE(frame.find("step_latency_ns"), nullptr);
  EXPECT_NE(frame.find("steps_per_session"), nullptr);
  EXPECT_GT(frame.at("step_latency_ns").at("count").as_uint64(), 0u);

  const io::Json& row = frame.at("tenants").as_array().front();
  for (const char* key : {"tenant", "algorithm", "k", "steps", "move", "service", "total",
                          "closed", "queued", "reqs", "outcomes", "busys", "errors",
                          "inflight_hwm", "ingest_latency_ns"})
    EXPECT_NE(row.find(key), nullptr) << key;
  // stats frames do not quiesce, but by the time stats ran the stream had
  // paused, so both accepted steps were consumed and measured.
  EXPECT_EQ(row.at("reqs").as_uint64(), 2u);
  EXPECT_EQ(row.at("ingest_latency_ns").at("count").as_uint64(), 2u);
  EXPECT_GT(row.at("ingest_latency_ns").at("p99").as_uint64(), 0u);
}

TEST_F(ServeServiceTest, LeanModeKeepsCountersButSkipsClocks) {
  ServiceOptions options;
  options.lean = true;
  Service service(options);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 1));
  lines.push_back(req_line("alpha", {Point{1.5}}));
  lines.push_back(R"({"type":"metrics"})");
  lines.push_back(R"({"type":"shutdown"})");
  const RunOutput run = run_lines(service, lines);
  const auto metrics = frames_of_type(run, "metrics");
  ASSERT_EQ(metrics.size(), 1u);
  expect_req_invariant(metrics.front());
  EXPECT_EQ(metric_value(metrics.front(), "serve.reqs_total"), 1u);
  // Clock-free: no round timing, no ingest stamps.
  for (const io::Json& metric : metrics.front().at("metrics").as_array()) {
    const std::string name = metric.at("name").as_string();
    if (name == "serve.ingest_latency_ns" || name == "mux.step_latency_ns") {
      EXPECT_EQ(metric.at("count").as_uint64(), 0u) << name;
    }
  }
}

TEST_F(ServeServiceTest, MetricsOutWritesAtomicNdjsonSnapshot) {
  const fs::path metrics_path = dir_ / "metrics.ndjson";
  ServiceOptions options;
  options.metrics_path = metrics_path;
  Service service(options);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 2));
  for (const auto& batch : make_batches(9, 6, 2)) lines.push_back(req_line("alpha", batch));
  lines.push_back(R"({"type":"close","tenant":"alpha"})");
  lines.push_back(R"({"type":"shutdown"})");
  ASSERT_EQ(run_lines(service, lines).reason, ExitReason::kShutdown);
  ASSERT_TRUE(fs::exists(metrics_path));
  EXPECT_FALSE(fs::exists(metrics_path.string() + ".tmp"));

  std::size_t meta = 0, metric = 0, tenant = 0, event = 0;
  std::ifstream in(metrics_path);
  std::string line;
  while (std::getline(in, line)) {
    const io::Json doc = io::Json::parse(line);
    const std::string kind = doc.at("kind").as_string();
    if (kind == "meta") {
      ++meta;
      EXPECT_EQ(doc.at("v").as_uint64(), 1u);
      EXPECT_GT(doc.at("unix_ms").as_uint64(), 0u);
    } else if (kind == "metric") {
      ++metric;
    } else if (kind == "tenant") {
      ++tenant;
      // The closed tenant's row survives: per-tenant counters + percentiles.
      EXPECT_EQ(doc.at("tenant").as_string(), "alpha");
      EXPECT_TRUE(doc.at("closed").as_bool());
      EXPECT_EQ(doc.at("reqs").as_uint64(), 6u);
      EXPECT_EQ(doc.at("outcomes").as_uint64(), 6u);
      EXPECT_GT(doc.at("ingest_latency_ns").at("p50").as_uint64(), 0u);
    } else if (kind == "event") {
      ++event;
    } else {
      ADD_FAILURE() << "unknown kind " << kind;
    }
  }
  EXPECT_EQ(meta, 1u);
  EXPECT_GE(metric, 15u) << "every catalogued metric is in the snapshot";
  EXPECT_EQ(tenant, 1u);
  EXPECT_GE(event, 3u) << "open, close, drain at minimum";
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// \p text with meta.unix_ms, the one wall-clock member of a cut, zeroed.
std::string mask_unix_ms(std::string text) {
  const std::string key = "\"unix_ms\":";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return text;
  const std::size_t begin = at + key.size();
  std::size_t end = begin;
  while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
  text.replace(begin, end - begin, "0");
  return text;
}

// The cut renders every mux slot, also one no telemetry call ever labelled.
TEST(ServeTelemetry, MetricsCutRendersSlotsWithNoTelemetryRow) {
  par::ThreadPool pool(1);
  core::SessionMultiplexer mux(pool);
  for (int s = 0; s < 3; ++s) {
    auto workload = std::make_shared<sim::Instance>(Point{0.0}, sim::ModelParams{},
                                                    sim::RequestStore(1));
    workload->push_step(sim::RequestBatch{{Point{1.0 + s}}});
    core::SessionSpec spec;
    spec.workload = workload;
    spec.algorithm = "MtC";
    spec.tenant = "t" + std::to_string(s);
    mux.add(std::move(spec));
  }
  mux.step(1);
  serve::ServeTelemetry telemetry(/*lean=*/false);
  ++telemetry.tenant_row(1, "t1").reqs;  // slots 0 and 2 have no row
  EXPECT_EQ(mask_unix_ms(telemetry.metrics_cut(mux, mux.totals())),
            mask_unix_ms(telemetry.snapshot_ndjson(mux, mux.snapshot())));
}

// A --metrics-out cut re-renders only the rows touched since the previous
// cut; its bytes must still equal a full render of the service's state.
// The seeded frame mix reaches every path that changes a tenant row: opens,
// reqs, busy bounces, closes, a dim-mismatch error, idle-timeout reaps,
// throttled rate-limited tenants, metrics frames, a journal past its
// capacity, and a restore from a snapshot.
TEST_F(ServeServiceTest, MetricsCutsEqualAFullRenderByteForByte) {
  ServiceOptions options;
  options.metrics_path = dir_ / "metrics.ndjson";
  options.metrics_every = 7;  // several cached cuts inside every round
  options.snapshot_path = dir_ / "svc.msrvss";
  options.max_inflight = 2;   // bursts bounce with busy frames
  options.idle_timeout = 40;  // tenants left alone get reaped
  options.durable = false;
  options.threads = 2;
  auto service = std::make_unique<Service>(options);

  stats::Rng rng(20);
  std::vector<std::pair<std::string, int>> names;  // every tenant ever opened, with its dim
  const auto pick = [&]() -> const std::pair<std::string, int>& {
    // Mostly the recent tenants, which are likely still open.
    const auto n = static_cast<std::int64_t>(names.size());
    const std::int64_t i = rng.uniform_int(std::max<std::int64_t>(0, n - 12), n - 1);
    return names[static_cast<std::size_t>(i)];
  };
  const auto random_req = [&](const std::string& name, int dim) {
    std::vector<Point> requests(static_cast<std::size_t>(rng.uniform_int(0, 2)), Point(dim));
    for (Point& p : requests)
      for (int c = 0; c < dim; ++c) p[c] = rng.uniform(-4.0, 4.0);
    return req_line(name, requests);
  };

  constexpr int kRounds = 60;
  constexpr int kRestoreRound = 30;
  std::uint64_t dropped_before_restore = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (round == kRestoreRound) {
      // Every round ends in a graceful drain, which saved a snapshot.
      dropped_before_restore = service->telemetry().journal().dropped();
      service = std::make_unique<Service>(options);
      service->restore(options.snapshot_path);
    }
    std::vector<std::string> lines;
    for (int frame = 0; frame < 120; ++frame) {
      const std::int64_t roll = rng.uniform_int(0, 99);
      if (names.empty() || roll < 8) {
        const std::string name = std::string("t") + std::to_string(names.size());
        const int dim = 1 + static_cast<int>(names.size() % 2);
        io::Json open = io::Json::parse(open_line(name, "MtC", dim, 1, names.size()));
        if (names.size() % 3 == 0) open.set("rate", 0.5);  // throttles under bursts
        lines.push_back(open.dump());
        names.emplace_back(name, dim);
      } else if (roll < 70) {
        const auto& [name, dim] = pick();
        lines.push_back(random_req(name, dim));
      } else if (roll < 82) {
        const auto& [name, dim] = pick();  // a burst past max_inflight
        for (int i = 0; i < 5; ++i) lines.push_back(random_req(name, dim));
      } else if (roll < 88) {
        lines.push_back(R"({"type":"close","tenant":")" + pick().first + R"("})");
      } else if (roll < 90) {
        const auto& [name, dim] = pick();  // wrong dim: closes the tenant
        lines.push_back(random_req(name, dim + 1));
      } else if (roll < 93) {
        lines.push_back(R"({"type":"metrics"})");
      } else {
        lines.push_back(R"({"type":"stats","tenant":")" + pick().first + R"("})");
      }
    }
    ASSERT_EQ(run_lines(*service, lines).reason, ExitReason::kEof);
    const std::string full =
        service->telemetry().snapshot_ndjson(service->mux(), service->mux().snapshot());
    ASSERT_EQ(mask_unix_ms(read_text(options.metrics_path)), mask_unix_ms(full))
        << "round " << round;
  }

  // The mix reached every path that marks a row.
  const serve::ServeTelemetry& telemetry = service->telemetry();
  EXPECT_GT(dropped_before_restore, 0u);
  EXPECT_GT(telemetry.journal().dropped(), 0u);
  EXPECT_GT(telemetry.busys.value(), 0u);
  EXPECT_GT(telemetry.idle_timeouts.value(), 0u);
  EXPECT_GT(telemetry.errors.value(), telemetry.idle_timeouts.value());
  EXPECT_GT(telemetry.throttles.value(), 0u);
  EXPECT_GT(telemetry.tenants_closed.value(),
            telemetry.errors.value());  // graceful closes too
  EXPECT_GT(service->mux().totals().throttled, 0u);
}

// ---------------------------------------------------------------------------
// Incremental checkpoints: base + delta segments, compaction, resume.
// ---------------------------------------------------------------------------

TEST_F(ServeServiceTest, IncrementalCheckpointsAppendDeltasAndCompact) {
  const fs::path snapshot = dir_ / "incremental.msrvss";
  ServiceOptions options;
  options.snapshot_path = snapshot;
  options.compact_ratio = 0.1;  // any appended delta triggers compaction
  Service service(options);

  const auto batches = make_batches(13, 12, 2);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 2, 1, 5));
  for (std::size_t t = 0; t < 4; ++t) lines.push_back(req_line("alpha", batches[t]));
  lines.push_back(R"({"type":"checkpoint"})");  // first save of the process: base
  for (std::size_t t = 4; t < 8; ++t) lines.push_back(req_line("alpha", batches[t]));
  lines.push_back(R"({"type":"checkpoint"})");  // incremental: delta append
  for (std::size_t t = 8; t < 12; ++t) lines.push_back(req_line("alpha", batches[t]));
  lines.push_back(R"({"type":"checkpoint"})");  // chain too long: compacts to a base
  lines.push_back(R"({"type":"shutdown"})");
  const RunOutput run = run_lines(service, lines);
  ASSERT_EQ(run.reason, ExitReason::kShutdown);

  const std::vector<io::Json> saves = frames_of_type(run, "checkpointed");
  ASSERT_GE(saves.size(), 4u);  // three explicit + the forced shutdown save
  EXPECT_EQ(saves[0].at("mode").as_string(), "base");
  EXPECT_EQ(saves[0].at("segments").as_uint64(), 1u);
  EXPECT_EQ(saves[1].at("mode").as_string(), "delta");
  EXPECT_EQ(saves[1].at("segments").as_uint64(), 2u);
  EXPECT_EQ(saves[2].at("mode").as_string(), "base");
  EXPECT_EQ(saves[2].at("segments").as_uint64(), 1u);
  for (const io::Json& save : saves) EXPECT_GT(save.at("bytes").as_uint64(), 0u);

  // The compaction is journaled as a service-wide event.
  bool compacted = false;
  for (const obs::Event& event : service.telemetry().journal().events())
    if (event.type == obs::EventType::kCompact) compacted = true;
  EXPECT_TRUE(compacted);

  // The compacted chain restores to the exact live state.
  Service restored(options);
  restored.restore(snapshot);
  EXPECT_EQ(restored.mux().stats(0).steps, service.mux().stats(0).steps);
  EXPECT_EQ(restored.mux().stats(0).total_cost, service.mux().stats(0).total_cost);
}

TEST_F(ServeServiceTest, ResumeFromBasePlusDeltaChainIsBitIdentical) {
  const fs::path snapshot = dir_ / "resume.msrvss";
  ServiceOptions options;
  options.snapshot_path = snapshot;
  const auto batches = make_batches(17, 18, 2);

  // Uninterrupted reference run.
  std::vector<std::string> all;
  all.push_back(open_line("alpha", "MtC", 2, 1, 3));
  for (const auto& batch : batches) all.push_back(req_line("alpha", batch));
  all.push_back(R"({"type":"shutdown"})");
  Service reference(ServiceOptions{});
  const RunOutput ref_run = run_lines(reference, all);
  ASSERT_EQ(outcomes_of(ref_run, "alpha").size(), batches.size());

  // Interrupted run: base save, delta save, then a kill (no shutdown save).
  Service first(options);
  std::vector<std::string> head;
  head.push_back(open_line("alpha", "MtC", 2, 1, 3));
  for (std::size_t t = 0; t < 6; ++t) head.push_back(req_line("alpha", batches[t]));
  head.push_back(R"({"type":"checkpoint"})");
  for (std::size_t t = 6; t < 12; ++t) head.push_back(req_line("alpha", batches[t]));
  head.push_back(R"({"type":"checkpoint"})");
  head.push_back(R"({"type":"kill"})");
  const RunOutput first_run = run_lines(first, head);
  ASSERT_EQ(first_run.reason, ExitReason::kKill);
  const auto saves = frames_of_type(first_run, "checkpointed");
  ASSERT_EQ(saves.size(), 2u);
  EXPECT_EQ(saves[0].at("mode").as_string(), "base");
  EXPECT_EQ(saves[1].at("mode").as_string(), "delta");
  const serve::SnapshotFileInfo info = serve::inspect_snapshot(snapshot);
  EXPECT_EQ(info.version, serve::kSnapshotVersionV2);
  EXPECT_EQ(info.segments, 2u) << "resume must replay base + delta";

  // Resume replays the chain; the remainder of the stream is bit-identical.
  Service second(options);
  second.restore(snapshot);
  std::vector<std::string> tail;
  for (std::size_t t = 12; t < batches.size(); ++t) tail.push_back(req_line("alpha", batches[t]));
  tail.push_back(R"({"type":"shutdown"})");
  const RunOutput second_run = run_lines(second, tail);

  std::vector<std::string> combined = outcomes_of(first_run, "alpha");
  for (const std::string& line : outcomes_of(second_run, "alpha")) combined.push_back(line);
  EXPECT_EQ(combined, outcomes_of(ref_run, "alpha"));
  EXPECT_EQ(second.mux().stats(0).total_cost, reference.mux().stats(0).total_cost);
}

// ---------------------------------------------------------------------------
// Per-tenant rate limits at the admission layer.
// ---------------------------------------------------------------------------

TEST_F(ServeServiceTest, RateLimitedTenantThrottlesWithJournalAttribution) {
  Service service(ServiceOptions{});
  io::Json open = io::Json::parse(open_line("slow", "MtC", 1, 1, 2));
  open.set("rate", 0.5);  // one step every other scheduler round
  std::vector<std::string> lines;
  lines.push_back(open.dump());
  for (const auto& batch : make_batches(3, 6, 1)) lines.push_back(req_line("slow", batch));
  ASSERT_EQ(run_lines(service, lines).reason, ExitReason::kEof);  // EOF drains

  // The opened frame echoes the admitted limit.
  EXPECT_EQ(service.mux().stats(0).steps, 6u);
  EXPECT_GT(service.mux().stats(0).throttled_rounds, 0u);
  EXPECT_GT(service.mux().totals().throttled, 0u);

  bool journaled = false;
  for (const obs::Event& event : service.telemetry().journal().events())
    if (event.type == obs::EventType::kThrottle) {
      journaled = true;
      EXPECT_EQ(event.tenant, "slow");
      EXPECT_NE(event.detail.find("rate"), std::string::npos);
    }
  EXPECT_TRUE(journaled);

  // The quiescent stats frame reports both new members.
  const RunOutput stats_run = run_lines(service, {R"({"type":"stats"})"});
  const auto stats = frames_of_type(stats_run, "stats");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].at("active_sessions").as_uint64(), service.mux().totals().active);
  EXPECT_EQ(stats[0].at("throttled").as_uint64(), service.mux().totals().throttled);
  const io::Json& row = stats[0].at("tenants").as_array().front();
  EXPECT_GT(row.at("throttled").as_uint64(), 0u);
}

TEST_F(ServeServiceTest, DefaultRateAppliesOnlyWhenOpenOmitsIt) {
  ServiceOptions options;
  options.default_rate = 2.0;
  Service service(options);
  io::Json custom = io::Json::parse(open_line("custom", "MtC", 1, 1, 1));
  custom.set("rate", 0.75);
  const RunOutput run = run_lines(
      service, {open_line("plain", "MtC", 1), custom.dump(), R"({"type":"shutdown"})"});
  const std::vector<io::Json> opened = frames_of_type(run, "opened");
  ASSERT_EQ(opened.size(), 2u);
  EXPECT_EQ(opened[0].at("tenant").as_string(), "plain");
  EXPECT_EQ(opened[0].at("rate").as_double(), 2.0);  // admission default applied
  EXPECT_EQ(opened[1].at("tenant").as_string(), "custom");
  EXPECT_EQ(opened[1].at("rate").as_double(), 0.75);  // explicit limit wins
}

// ---------------------------------------------------------------------------
// Fault tolerance: retries, degraded mode, idle reaping, startup hygiene.
// ---------------------------------------------------------------------------

std::vector<std::string> error_messages(const RunOutput& run) {
  std::vector<std::string> out;
  for (const io::Json& frame : frames_of_type(run, "error"))
    out.push_back(frame.at("message").as_string());
  return out;
}

std::size_t journal_count(const Service& service, obs::EventType type) {
  std::size_t n = 0;
  for (const obs::Event& event : service.telemetry().journal().events())
    if (event.type == type) ++n;
  return n;
}

TEST_F(ServeServiceTest, TransientSnapshotFaultsAreRetriedToSuccess) {
  // Two injected write failures, three retries budgeted: the save must land
  // on the third attempt with no error frame and no degraded episode.
  fault::Injector injector(1);
  fault::SiteRule rule;
  rule.site = fault::kSiteSnapshotBaseWrite;
  rule.every = 1;
  rule.count = 2;
  injector.add_rule(rule);
  ServiceOptions options;
  options.snapshot_path = dir_ / "retry.msrvss";
  options.faults = &injector;
  options.retry_limit = 3;
  options.retry_base_ms = 0;  // keep the test instant; jitter of 0 is 0
  Service service(options);
  const RunOutput run = run_lines(service, {open_line("alpha", "MtC", 1),
                                            req_line("alpha", {Point{1.5}}),
                                            R"({"type":"checkpoint"})",
                                            R"({"type":"metrics"})",
                                            R"({"type":"shutdown"})"});
  ASSERT_EQ(run.reason, ExitReason::kShutdown);
  EXPECT_TRUE(error_messages(run).empty());
  ASSERT_GE(frames_of_type(run, "checkpointed").size(), 1u);
  const auto metrics = frames_of_type(run, "metrics");
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metric_value(metrics.front(), "serve.retries_total"), 2u);
  EXPECT_EQ(metric_value(metrics.front(), "serve.degraded_total"), 0u);
  EXPECT_EQ(metric_value(metrics.front(), "serve.degraded"), 0u);
  EXPECT_EQ(journal_count(service, obs::EventType::kRetry), 2u);
  EXPECT_EQ(journal_count(service, obs::EventType::kDegraded), 0u);

  // The survived snapshot restores: the retried base was written atomically.
  Service restored(options);
  restored.restore(options.snapshot_path);
  EXPECT_EQ(restored.mux().stats(0).steps, 1u);
}

TEST_F(ServeServiceTest, ExhaustedRetriesEnterDegradedModeUntilASaveSucceeds) {
  // Six injected failures against a 2-attempt budget: saves 1-3 exhaust
  // their retries (one degraded EPISODE, not three), save 4 recovers.
  fault::Injector injector(2);
  fault::SiteRule rule;
  rule.site = fault::kSiteSnapshotBaseWrite;
  rule.every = 1;
  rule.count = 6;
  injector.add_rule(rule);
  ServiceOptions options;
  options.snapshot_path = dir_ / "degraded.msrvss";
  options.faults = &injector;
  options.retry_limit = 1;
  options.retry_base_ms = 0;
  Service service(options);
  const RunOutput run = run_lines(service, {open_line("alpha", "MtC", 1),
                                            req_line("alpha", {Point{1.5}}),
                                            R"({"type":"checkpoint"})",
                                            R"({"type":"checkpoint"})",
                                            R"({"type":"checkpoint"})",
                                            R"({"type":"stats"})",
                                            R"({"type":"metrics"})",
                                            R"({"type":"checkpoint"})",
                                            R"({"type":"metrics"})",
                                            R"({"type":"shutdown"})"});
  ASSERT_EQ(run.reason, ExitReason::kShutdown) << "degraded mode must keep serving";

  // Every exhausted save is loud, but the episode is counted once.
  const std::vector<std::string> errors = error_messages(run);
  ASSERT_EQ(errors.size(), 3u);
  for (const std::string& message : errors)
    EXPECT_NE(message.find("snapshot save failed: injected fault"), std::string::npos) << message;

  // Mid-outage: the stats frame and the gauge both say degraded.
  const auto stats = frames_of_type(run, "stats");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats.front().at("degraded").as_bool());
  const auto metrics = frames_of_type(run, "metrics");
  ASSERT_EQ(metrics.size(), 2u);
  expect_req_invariant(metrics.front());  // reqs == outcomes + busys held throughout
  EXPECT_EQ(metric_value(metrics[0], "serve.degraded"), 1u);
  EXPECT_EQ(metric_value(metrics[0], "serve.degraded_total"), 1u);
  EXPECT_EQ(metric_value(metrics[0], "serve.retries_total"), 3u);  // one per exhausted save

  // The fourth save succeeds: gauge drops, episode count stays at one.
  EXPECT_EQ(metric_value(metrics[1], "serve.degraded"), 0u);
  EXPECT_EQ(metric_value(metrics[1], "serve.degraded_total"), 1u);
  ASSERT_GE(frames_of_type(run, "checkpointed").size(), 1u);
  // Journal: enter + recovered, exactly one pair.
  EXPECT_EQ(journal_count(service, obs::EventType::kDegraded), 2u);
}

TEST_F(ServeServiceTest, FailedMetricsWriteJournalsAndContinues) {
  // --metrics-out hitting a dead disk must not kill the stream: the write
  // is retried, journaled as an error, and the service degrades instead.
  fault::Injector injector(3);
  fault::SiteRule rule;
  rule.site = fault::kSiteMetricsWrite;
  rule.every = 1;
  injector.add_rule(rule);
  ServiceOptions options;
  options.metrics_path = dir_ / "metrics.ndjson";
  options.metrics_every = 1;  // every step flushes, so the fault fires mid-run
  options.faults = &injector;
  options.retry_limit = 1;
  options.retry_base_ms = 0;
  Service service(options);
  const RunOutput run = run_lines(service, {open_line("alpha", "MtC", 1),
                                            req_line("alpha", {Point{1.5}}),
                                            R"({"type":"metrics"})",
                                            R"({"type":"shutdown"})"});
  ASSERT_EQ(run.reason, ExitReason::kShutdown);
  ASSERT_EQ(outcomes_of(run, "alpha").size(), 1u) << "the stream itself must keep flowing";

  const std::vector<std::string> errors = error_messages(run);
  ASSERT_GE(errors.size(), 1u);
  EXPECT_NE(errors.front().find("metrics snapshot failed: injected fault"), std::string::npos);
  EXPECT_FALSE(fs::exists(options.metrics_path.string() + ".tmp"));

  bool journaled = false;
  for (const obs::Event& event : service.telemetry().journal().events())
    if (event.type == obs::EventType::kError &&
        event.detail.find("metrics snapshot failed") != std::string::npos)
      journaled = true;
  EXPECT_TRUE(journaled);
  const auto metrics = frames_of_type(run, "metrics");
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metric_value(metrics.front(), "serve.degraded"), 1u);
}

TEST_F(ServeServiceTest, IdleTenantsAreReapedWithAttributedTimeout) {
  ServiceOptions options;
  options.idle_timeout = 3;  // input lines of silence
  Service service(options);
  std::vector<std::string> lines;
  lines.push_back(open_line("idle", "MtC", 1));
  lines.push_back(open_line("busy", "MtC", 1));
  for (const auto& batch : make_batches(5, 4, 1)) lines.push_back(req_line("busy", batch));
  lines.push_back(R"({"type":"metrics"})");
  lines.push_back(R"({"type":"shutdown"})");
  const RunOutput run = run_lines(service, lines);
  ASSERT_EQ(run.reason, ExitReason::kShutdown);

  // The reap is attributed: a fatal error frame naming the tenant, then the
  // standard closed frame with its final bill.
  const auto errors = frames_of_type(run, "error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().at("message").as_string().find("idle timeout"), std::string::npos);
  EXPECT_EQ(errors.front().at("tenant").as_string(), "idle");
  EXPECT_TRUE(errors.front().at("closed").as_bool());
  bool closed_idle = false;
  for (const io::Json& frame : frames_of_type(run, "closed"))
    if (frame.at("tenant").as_string() == "idle") closed_idle = true;
  EXPECT_TRUE(closed_idle);
  EXPECT_EQ(journal_count(service, obs::EventType::kTimeout), 1u);

  // The busy tenant was never touched.
  const auto metrics = frames_of_type(run, "metrics");
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metric_value(metrics.front(), "serve.idle_timeouts_total"), 1u);
  EXPECT_EQ(metric_value(metrics.front(), "serve.tenants_open"), 1u);
  EXPECT_EQ(outcomes_of(run, "busy").size(), 4u);
}

TEST_F(ServeServiceTest, StaleTempFilesAreSweptOnStartup) {
  // A crash between "write tmp" and "rename" leaves a .tmp; the next boot
  // must not trip over it (or worse, let it grow forever).
  const fs::path snapshot = dir_ / "boot.msrvss";
  const fs::path metrics = dir_ / "boot.ndjson";
  for (const fs::path& stale : {fs::path(snapshot.string() + ".tmp"),
                                fs::path(metrics.string() + ".tmp")}) {
    std::ofstream out(stale, std::ios::binary);
    out << "torn half-write from a previous life";
  }
  ServiceOptions options;
  options.snapshot_path = snapshot;
  options.metrics_path = metrics;
  Service service(options);
  EXPECT_FALSE(fs::exists(snapshot.string() + ".tmp"));
  EXPECT_FALSE(fs::exists(metrics.string() + ".tmp"));
}

TEST_F(ServeServiceTest, ServeReadFaultIsObservationalTheLineStillLands) {
  // A kFail at serve.read reports the fault but must not drop the frame —
  // otherwise an every=1 plan would livelock the whole stream.
  fault::Injector injector(4);
  fault::SiteRule rule;
  rule.site = fault::kSiteServeRead;
  rule.nth = 2;  // the req line
  injector.add_rule(rule);
  ServiceOptions options;
  options.faults = &injector;
  Service service(options);
  const RunOutput run = run_lines(service, {open_line("alpha", "MtC", 1),
                                            req_line("alpha", {Point{1.5}}),
                                            R"({"type":"shutdown"})"});
  ASSERT_EQ(run.reason, ExitReason::kShutdown);
  const std::vector<std::string> errors = error_messages(run);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("injected fault at site serve.read"), std::string::npos);
  EXPECT_EQ(outcomes_of(run, "alpha").size(), 1u) << "the faulted line was still processed";
}

TEST_F(ServeServiceTest, DisabledInjectorIsBitIdenticalToNoInjector) {
  // The acceptance bar for the hooks: an armed-but-empty injector must not
  // perturb a single output byte relative to running with no injector.
  const auto batches = make_batches(21, 10, 2);
  std::vector<std::string> lines;
  lines.push_back(open_line("alpha", "MtC", 2, 1, 9));
  for (const auto& batch : batches) lines.push_back(req_line("alpha", batch));
  lines.push_back(R"({"type":"shutdown"})");

  Service plain(ServiceOptions{});
  const RunOutput without = run_lines(plain, lines);
  fault::Injector injector(5);  // seeded, but holds no rules
  ServiceOptions options;
  options.faults = &injector;
  Service hooked(options);
  const RunOutput with = run_lines(hooked, lines);
  EXPECT_EQ(outcomes_of(without, "alpha"), outcomes_of(with, "alpha"));
  EXPECT_EQ(injector.total_fired(), 0u);
}

// ---------------------------------------------------------------------------
// The background writer: saves and metrics cuts written off the pump.
// ---------------------------------------------------------------------------

/// Three tenants streaming 24 steps each against max_inflight = 1: every
/// second req bounces and pumps, so periodic saves and cuts hand off
/// mid-stream.
std::vector<std::string> writer_workload() {
  std::vector<std::string> lines;
  const std::vector<std::string> names = {"a", "b", "c"};
  for (std::size_t i = 0; i < names.size(); ++i)
    lines.push_back(open_line(names[i], i == 1 ? "Lazy" : "MtC", 2, 1, i));
  const auto batches = make_batches(31, 24, 2);
  for (std::size_t t = 0; t < batches.size(); ++t)
    for (const std::string& name : names) lines.push_back(req_line(name, batches[t]));
  lines.push_back(R"({"type":"shutdown"})");
  return lines;
}

ServiceOptions writer_options(const fs::path& dir) {
  ServiceOptions options;
  options.snapshot_path = dir / "writer.msrvss";
  options.checkpoint_every = 3;
  options.metrics_path = dir / "writer.ndjson";
  options.metrics_every = 4;
  options.max_inflight = 1;
  options.lean = true;  // clock-free, so the metrics files can match byte for byte
  options.durable = false;
  options.retry_base_ms = 0;
  options.threads = 2;
  return options;
}

std::vector<std::string> dumps_of_type(const RunOutput& run, const std::string& type) {
  std::vector<std::string> out;
  for (const io::Json& frame : frames_of_type(run, type)) out.push_back(frame.dump());
  return out;
}

/// \p text with every wall-clock member of a cut (meta.unix_ms, the
/// events' ms) zeroed.
std::string mask_wall_clock(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size();) {
    bool masked = false;
    for (const std::string_view key : {std::string_view("\"unix_ms\":"), std::string_view("\"ms\":")}) {
      if (text.compare(i, key.size(), key) != 0) continue;
      out.append(key);
      i += key.size();
      while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
      out.push_back('0');
      masked = true;
      break;
    }
    if (!masked) out.push_back(text[i++]);
  }
  return out;
}

TEST_F(ServeServiceTest, SlowWriterLeavesEveryOutputByteIdentical) {
  const std::vector<std::string> lines = writer_workload();
  // Both runs write the same paths (they appear in frames and the journal).
  const ServiceOptions fast_options = writer_options(dir_);
  Service fast(fast_options);
  const RunOutput fast_run = run_lines(fast, lines);
  const std::string fast_chain = read_text(fast_options.snapshot_path);
  const std::string fast_metrics = read_text(fast_options.metrics_path);
  fs::remove(fast_options.snapshot_path);
  fs::remove(fast_options.metrics_path);

  // ~20 ms on every metrics write and delta append: periodic jobs are still
  // in flight when the pump comes round again.
  fault::Injector injector(6);
  for (const char* site : {fault::kSiteMetricsWrite, fault::kSiteSnapshotDeltaAppend}) {
    fault::SiteRule rule;
    rule.site = site;
    rule.every = 1;
    rule.delay_us = 20000;
    rule.outcome = fault::Outcome::kDelay;
    injector.add_rule(rule);
  }
  ServiceOptions slow_options = writer_options(dir_);
  slow_options.faults = &injector;
  Service slow(slow_options);
  const RunOutput slow_run = run_lines(slow, lines);
  ASSERT_EQ(slow_run.reason, ExitReason::kShutdown);
  EXPECT_GT(injector.stats(fault::kSiteMetricsWrite).fired, 3u);
  EXPECT_GT(injector.stats(fault::kSiteSnapshotDeltaAppend).fired, 3u);

  EXPECT_EQ(dumps_of_type(slow_run, "outcome"), dumps_of_type(fast_run, "outcome"));
  EXPECT_EQ(dumps_of_type(slow_run, "busy"), dumps_of_type(fast_run, "busy"));
  EXPECT_TRUE(error_messages(slow_run).empty());
  EXPECT_EQ(read_text(slow_options.snapshot_path), fast_chain);
  EXPECT_EQ(mask_wall_clock(read_text(slow_options.metrics_path)), mask_wall_clock(fast_metrics));

  // Only the position of the periodic checkpointed frames may move: the
  // same frames, in save order.
  const std::vector<io::Json> saves = frames_of_type(slow_run, "checkpointed");
  EXPECT_EQ(dumps_of_type(slow_run, "checkpointed"), dumps_of_type(fast_run, "checkpointed"));
  EXPECT_GT(saves.size(), 5u);
  for (std::size_t i = 1; i < saves.size(); ++i)
    EXPECT_LE(saves[i - 1].at("steps").as_uint64(), saves[i].at("steps").as_uint64());
}

TEST_F(ServeServiceTest, FailedPeriodicWriteRetriesAsAFreshBaseAtTheNextPump) {
  const std::vector<std::string> lines = writer_workload();
  const fs::path clean_dir = dir_ / "clean";
  const fs::path fault_dir = dir_ / "fault";
  fs::create_directories(clean_dir);
  fs::create_directories(fault_dir);
  ServiceOptions clean_options = writer_options(clean_dir);
  clean_options.metrics_path.clear();
  Service clean(clean_options);
  const RunOutput clean_run = run_lines(clean, lines);

  // The first delta append (the second periodic save) fails on the writer.
  fault::Injector injector(7);
  fault::SiteRule rule;
  rule.site = fault::kSiteSnapshotDeltaAppend;
  rule.nth = 1;
  injector.add_rule(rule);
  ServiceOptions options = writer_options(fault_dir);
  options.metrics_path.clear();
  options.faults = &injector;
  Service service(options);
  const RunOutput run = run_lines(service, lines);
  ASSERT_EQ(run.reason, ExitReason::kShutdown);
  EXPECT_EQ(injector.stats(fault::kSiteSnapshotDeltaAppend).fired, 1u);

  // One retry, which rewrote a fresh base; no error frame, no degraded episode.
  EXPECT_TRUE(error_messages(run).empty());
  EXPECT_EQ(service.telemetry().retries.value(), 1u);
  EXPECT_EQ(service.telemetry().degraded_total.value(), 0u);
  EXPECT_EQ(journal_count(service, obs::EventType::kRetry), 1u);
  const std::vector<io::Json> saves = frames_of_type(run, "checkpointed");
  ASSERT_GE(saves.size(), 3u);
  EXPECT_EQ(saves[0].at("mode").as_string(), "base");
  EXPECT_EQ(saves[1].at("mode").as_string(), "base") << "the failed delta has no frame";
  EXPECT_EQ(saves[1].at("segments").as_uint64(), 1u);
  EXPECT_GT(saves[1].at("steps").as_uint64(), saves[0].at("steps").as_uint64());

  // The retried chain restores to the same state as a chain that never failed.
  EXPECT_EQ(dumps_of_type(run, "outcome"), dumps_of_type(clean_run, "outcome"));
  EXPECT_EQ(serve::encode_snapshot(serve::read_snapshot(options.snapshot_path)),
            serve::encode_snapshot(serve::read_snapshot(clean_options.snapshot_path)));
}

TEST_F(ServeServiceTest, KillWithAWriteInFlightResumesAtLeastTheLastCheckpoint) {
  // Every delta append takes 100 ms, so the periodic save handed off just
  // before the kill frame is still being written when the service stops.
  fault::Injector injector(8);
  fault::SiteRule rule;
  rule.site = fault::kSiteSnapshotDeltaAppend;
  rule.every = 1;
  rule.delay_us = 100000;
  rule.outcome = fault::Outcome::kDelay;
  injector.add_rule(rule);
  ServiceOptions options = writer_options(dir_);
  options.checkpoint_every = 16;  // a base, then two slow deltas
  options.metrics_path.clear();
  options.faults = &injector;
  std::vector<std::string> lines = writer_workload();
  lines.back() = R"({"type":"kill"})";

  std::uint64_t handed_off = 0;
  std::vector<io::Json> saves;
  std::size_t outcomes = 0;
  {
    Service service(options);
    const RunOutput run = run_lines(service, lines);
    ASSERT_EQ(run.reason, ExitReason::kKill);
    handed_off = service.telemetry().snapshots.value();
    saves = frames_of_type(run, "checkpointed");
    outcomes = frames_of_type(run, "outcome").size();
  }  // the writer finishes its job before the service goes away
  ASSERT_FALSE(saves.empty());
  EXPECT_GT(handed_off, saves.size()) << "no write was in flight at the kill";

  Service resumed(options);
  resumed.restore(options.snapshot_path);
  const std::uint64_t steps = resumed.mux().totals().steps;
  EXPECT_GE(steps, saves.back().at("steps").as_uint64());
  EXPECT_LE(steps, outcomes);
}

TEST_F(ServeServiceTest, HandedOffDeltasCarryOnlySlotsSteppedSinceTheLastHandOff) {
  // 40 tenants, one of them busy: the first periodic save is a base of all
  // 40, every later one a delta of the busy tenant's record alone. The
  // dirty set resets when a save is handed to the writer.
  ServiceOptions options;
  options.snapshot_path = dir_ / "handoff.msrvss";
  options.checkpoint_every = 2;
  options.max_inflight = 1;
  options.durable = false;
  Service service(options);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 40; ++i)
    lines.push_back(open_line(std::string("t") + std::to_string(i), "Lazy", 1, 1, i));
  const auto batches = make_batches(3, 16, 1);
  for (const auto& batch : batches) lines.push_back(req_line("t0", batch));  // every 2nd bounces
  lines.push_back(R"({"type":"shutdown"})");
  const RunOutput run = run_lines(service, lines);
  ASSERT_EQ(run.reason, ExitReason::kShutdown);

  const std::vector<io::Json> saves = frames_of_type(run, "checkpointed");
  ASSERT_GE(saves.size(), 4u);
  EXPECT_EQ(saves[0].at("mode").as_string(), "base");
  const std::uint64_t delta_bytes = saves[1].at("bytes").as_uint64();
  EXPECT_LT(delta_bytes * 10, saves[0].at("bytes").as_uint64());
  for (std::size_t i = 1; i + 1 < saves.size(); ++i) {
    EXPECT_EQ(saves[i].at("mode").as_string(), "delta");
    EXPECT_EQ(saves[i].at("bytes").as_uint64(), delta_bytes) << "save " << i;
  }
}

TEST_F(ServeServiceTest, IdleReapsLandOnTheSameLinesAsAFullTableWalk) {
  // Tenants open over time and are active now and then; every pump may
  // reap. The expected reaps come from a model of the full table walk each
  // pump used to make: a tenant whose last sign of life is kTimeout+ lines
  // old is closed at the first pump that sees it so.
  constexpr std::size_t kTenants = 120;
  constexpr std::uint64_t kTimeout = 60;
  const auto name = [](std::size_t t) { return std::string("t") + std::to_string(t); };
  const std::string metrics = R"({"type":"metrics"})";     // pumps, no sign of life
  const std::string stray = R"({"type":"stats","tenant":"nobody"})";  // neither
  stats::Rng rng(41);
  std::vector<std::string> lines;
  std::size_t opened = 0;
  const auto open_next = [&] { lines.push_back(open_line(name(opened), "Lazy", 1, 1, opened)); ++opened; };
  // Quiet stretches of strays and metrics frames reap everyone, so the
  // table runs empty and the next tenants open into it.
  const auto quiet = [&] {
    for (std::uint64_t i = 0; i < 2 * kTimeout; ++i) lines.push_back(i % 7 == 6 ? metrics : stray);
  };
  for (int phase = 0; phase < 2; ++phase) {
    for (int i = 0; i < 1500; ++i) {
      const std::int64_t roll = rng.uniform_int(0, 99);
      if (opened < kTenants * (phase + 1) / 2 && (opened == 0 || roll < 6)) {
        open_next();
      } else if (roll < 9) {
        lines.push_back(metrics);
      } else {
        // Skewed picks among the open ones: low ids stay busy, high ids
        // mostly go quiet; a second req before the next pump bounces.
        const auto hi = static_cast<std::int64_t>(opened) - 1;
        const std::int64_t lo = rng.uniform_int(0, 9) < 7 ? std::max<std::int64_t>(0, hi - 10) : 0;
        lines.push_back(req_line(name(static_cast<std::size_t>(rng.uniform_int(lo, hi))),
                                 {Point{rng.uniform(-2.0, 2.0)}}));
      }
    }
    quiet();
  }

  // The model, line by line. With max_inflight = 1 a second req before the
  // next pump bounces, and the bounce pumps; EOF pumps once more.
  std::vector<std::uint64_t> activity(kTenants, 0);
  std::vector<bool> open(kTenants, false);
  std::vector<bool> queued(kTenants, false);
  std::vector<std::pair<std::string, std::uint64_t>> expected;
  const auto pump = [&](std::uint64_t line) {
    for (std::size_t t = 0; t < kTenants; ++t)
      if (queued[t]) {
        queued[t] = false;
        activity[t] = line;  // the outcome counts as life
      }
    for (std::size_t t = 0; t < kTenants; ++t)
      if (open[t] && line - activity[t] >= kTimeout) {
        open[t] = false;
        expected.emplace_back(name(t), line);
      }
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::uint64_t line = i + 1;
    const io::Json frame = io::Json::parse(lines[i]);
    const std::string type = frame.at("type").as_string();
    if (type == "metrics") {
      pump(line);
      continue;
    }
    if (type == "stats") continue;
    const std::size_t t = std::stoul(frame.at("tenant").as_string().substr(1));
    if (type == "open") {
      open[t] = true;
      activity[t] = line;
    } else if (open[t]) {
      activity[t] = line;
      if (queued[t])
        pump(line);
      else
        queued[t] = true;
    }
  }
  pump(lines.size());

  ServiceOptions options;
  options.idle_timeout = kTimeout;
  options.max_inflight = 1;
  options.threads = 2;
  Service service(options);
  const RunOutput run = run_lines(service, lines);
  std::vector<std::pair<std::string, std::uint64_t>> reaped;
  for (const io::Json& frame : frames_of_type(run, "error"))
    if (frame.at("message").as_string().find("idle timeout") != std::string::npos)
      reaped.emplace_back(frame.at("tenant").as_string(), frame.at("line").as_uint64());
  EXPECT_EQ(expected.size(), kTenants) << "every tenant goes quiet in the end";
  EXPECT_EQ(reaped, expected);
}

}  // namespace
}  // namespace mobsrv
