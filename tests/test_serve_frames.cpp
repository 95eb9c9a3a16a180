// Tests for the mobsrv_serve wire protocol (serve/frames.hpp): client-frame
// parsing with loud rejection of unknown members/types/versions, tenant
// attribution for error isolation, TenantSpec JSON round-trips, and the
// server frame builders' exact shapes — including a differential test of
// the DOM-free tenant-row writer against a DOM oracle.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/frames.hpp"
#include "serve/telemetry.hpp"
#include "stats/rng.hpp"

namespace mobsrv {
namespace {

using serve::ClientFrame;
using serve::FrameError;
using serve::FrameType;
using serve::TenantSpec;

ClientFrame parse(const std::string& line) { return serve::parse_client_frame(line); }

/// The error message a line fails with (empty when it parses fine).
std::string error_of(const std::string& line) {
  try {
    (void)parse(line);
    return {};
  } catch (const FrameError& error) {
    return error.what();
  }
}

std::string tenant_of(const std::string& line) {
  try {
    (void)parse(line);
    return {};
  } catch (const FrameError& error) {
    return error.tenant();
  }
}

// ---------------------------------------------------------------------------
// Open frames.
// ---------------------------------------------------------------------------

TEST(ServeFrames, OpenFrameParsesFullSpec) {
  const ClientFrame frame = parse(
      R"({"type":"open","v":1,"tenant":"acme","algorithm":"MtC","seed":7,"dim":2,"k":4,)"
      R"("speed":1.5,"policy":"throw","D":2.0,"m":0.5,"order":"serve-then-move",)"
      R"("starts":[[0,0],[1,0],[0,1],[1,1]]})");
  EXPECT_EQ(frame.type, FrameType::kOpen);
  EXPECT_EQ(frame.tenant, "acme");
  EXPECT_EQ(frame.open.algorithm, "MtC");
  EXPECT_EQ(frame.open.seed, 7u);
  EXPECT_EQ(frame.open.dim, 2);
  EXPECT_EQ(frame.open.fleet_size, 4u);
  EXPECT_EQ(frame.open.speed_factor, 1.5);
  EXPECT_EQ(frame.open.policy, sim::SpeedLimitPolicy::kThrow);
  EXPECT_EQ(frame.open.params.move_cost_weight, 2.0);
  EXPECT_EQ(frame.open.params.max_step, 0.5);
  EXPECT_EQ(frame.open.params.order, sim::ServiceOrder::kServeThenMove);
  ASSERT_EQ(frame.open.starts.size(), 4u);
  EXPECT_EQ(frame.open.starts[3], (geo::Point{1.0, 1.0}));
}

TEST(ServeFrames, OpenFrameDefaultsAreProductionFriendly) {
  const ClientFrame frame =
      parse(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":3})");
  EXPECT_EQ(frame.open.fleet_size, 1u);
  EXPECT_EQ(frame.open.speed_factor, 1.0);
  // A live service clamps by default rather than throwing a tenant out.
  EXPECT_EQ(frame.open.policy, sim::SpeedLimitPolicy::kClamp);
  ASSERT_EQ(frame.open.starts.size(), 1u);
  EXPECT_EQ(frame.open.starts[0], geo::Point::zero(3));
}

TEST(ServeFrames, SharedStartIsReplicatedAcrossTheFleet) {
  const ClientFrame frame = parse(
      R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"k":3,"start":[2.5]})");
  ASSERT_EQ(frame.open.starts.size(), 3u);
  for (const geo::Point& p : frame.open.starts) EXPECT_EQ(p, geo::Point{2.5});
}

TEST(ServeFrames, OpenFrameRequiresTheProtocolVersion) {
  EXPECT_NE(error_of(R"({"type":"open","tenant":"t","algorithm":"MtC","dim":1})")
                .find("protocol version"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":2,"tenant":"t","algorithm":"MtC","dim":1})")
                .find("not supported"),
            std::string::npos);
}

TEST(ServeFrames, OpenFrameValidationIsLoud) {
  // Every rejected spec names the offending member.
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC"})").find("dim"),
            std::string::npos);
  EXPECT_NE(
      error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":9})").find("dim"),
      std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"k":0})")
                .find("\"k\""),
            std::string::npos);
  EXPECT_NE(
      error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"speed":0.5})")
          .find("speed"),
      std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"m":0})")
                .find("\"m\""),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"D":0.5})")
                .find("\"D\""),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"","algorithm":"MtC","dim":1})")
                .find("tenant"),
            std::string::npos);
  // starts must match k and dim; start XOR starts.
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"k":2,)"
                     R"("starts":[[0]]})")
                .find("starts"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":2,)"
                     R"("start":[1]})")
                .find("coordinates"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,)"
                     R"("start":[0],"starts":[[0]]})")
                .find("not both"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,)"
                     R"("policy":"explode"})")
                .find("policy"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Req / close / control frames.
// ---------------------------------------------------------------------------

TEST(ServeFrames, ReqFrameCarriesTheBatch) {
  const ClientFrame frame =
      parse(R"({"type":"req","tenant":"acme","batch":[[1,2],[3,4],[5,6]]})");
  EXPECT_EQ(frame.type, FrameType::kReq);
  EXPECT_EQ(frame.tenant, "acme");
  ASSERT_EQ(frame.batch.size(), 3u);
  EXPECT_EQ(frame.batch.requests[1], (geo::Point{3.0, 4.0}));
}

TEST(ServeFrames, EmptyBatchIsAnIdleStep) {
  const ClientFrame frame = parse(R"({"type":"req","tenant":"acme","batch":[]})");
  EXPECT_TRUE(frame.batch.empty());
}

TEST(ServeFrames, ReqFrameRejectsMixedDimensions) {
  EXPECT_NE(error_of(R"({"type":"req","tenant":"t","batch":[[1],[1,2]]})").find("mixes"),
            std::string::npos);
  EXPECT_EQ(tenant_of(R"({"type":"req","tenant":"t","batch":[[1],[1,2]]})"), "t");
}

TEST(ServeFrames, ControlFramesParse) {
  EXPECT_EQ(parse(R"({"type":"close","tenant":"t"})").type, FrameType::kClose);
  EXPECT_EQ(parse(R"({"type":"stats"})").type, FrameType::kStats);
  EXPECT_EQ(parse(R"({"type":"stats","tenant":"t"})").tenant, "t");
  EXPECT_EQ(parse(R"({"type":"checkpoint"})").type, FrameType::kCheckpoint);
  EXPECT_EQ(parse(R"({"type":"shutdown"})").type, FrameType::kShutdown);
  EXPECT_EQ(parse(R"({"type":"kill"})").type, FrameType::kKill);
  EXPECT_EQ(parse(R"({"type":"metrics"})").type, FrameType::kMetrics);
  EXPECT_EQ(parse(R"({"type":"metrics","v":1})").type, FrameType::kMetrics);
  EXPECT_THROW(parse(R"({"type":"metrics","tenant":"t"})"), serve::FrameError);
}

TEST(ServeFrames, MetricsFrameCarriesRegistryAndTenantRows) {
  obs::Registry registry;
  registry.counter("serve.reqs_total", "frames", "reqs").inc(3);
  core::SessionStats stats;
  stats.tenant = "t1";
  stats.algorithm = "MtC";
  stats.steps = 2;
  stats.horizon = 5;
  serve::TenantObsRow row;
  row.reqs = 3;
  row.outcomes = 2;
  row.busys = 1;
  const io::Json doc =
      io::Json::parse(serve::metrics_frame(registry.to_json(), {stats}, {row}));
  EXPECT_EQ(doc.at("type").as_string(), "metrics");
  EXPECT_EQ(doc.at("v").as_uint64(), serve::kProtocolVersion);
  EXPECT_EQ(doc.at("metrics").as_array().front().at("value").as_uint64(), 3u);
  const io::Json& tenant = doc.at("tenants").as_array().front();
  EXPECT_EQ(tenant.at("tenant").as_string(), "t1");
  EXPECT_EQ(tenant.at("queued").as_uint64(), 3u);  // horizon - steps
  EXPECT_EQ(tenant.at("reqs").as_uint64(), 3u);
  EXPECT_EQ(tenant.at("busys").as_uint64(), 1u);
  EXPECT_EQ(tenant.at("ingest_latency_ns").at("count").as_uint64(), 0u);
}

// ---------------------------------------------------------------------------
// Malformed lines: loud, attributed where possible.
// ---------------------------------------------------------------------------

TEST(ServeFrames, MalformedJsonIsLoudAndUnattributed) {
  EXPECT_NE(error_of("{nope").find("malformed JSON"), std::string::npos);
  EXPECT_EQ(tenant_of("{nope"), "");
  EXPECT_NE(error_of("[1,2]").find("object"), std::string::npos);
  EXPECT_NE(error_of(R"({"tenant":"t"})").find("type"), std::string::npos);
  EXPECT_EQ(tenant_of(R"({"tenant":"t"})"), "t");  // attributable, though
}

TEST(ServeFrames, UnknownTypeAndUnknownMembersAreRejected) {
  EXPECT_NE(error_of(R"({"type":"frobnicate"})").find("unknown frame type"), std::string::npos);
  // A typo'd member must fail loudly, never be silently ignored.
  EXPECT_NE(error_of(R"({"type":"req","tenant":"t","batc":[[1]]})").find("unknown member"),
            std::string::npos);
  EXPECT_EQ(tenant_of(R"({"type":"req","tenant":"t","batc":[[1]]})"), "t");
  EXPECT_NE(error_of(R"({"type":"shutdown","extra":1})").find("unknown member"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// TenantSpec JSON round-trip (the snapshot file depends on it).
// ---------------------------------------------------------------------------

TEST(ServeFrames, TenantSpecRoundTripsThroughJson) {
  TenantSpec spec;
  spec.tenant = "rt";
  spec.algorithm = "MoveToMin";
  spec.seed = 12345;
  spec.dim = 2;
  spec.fleet_size = 3;
  spec.speed_factor = 1.0 + 1.0 / 3.0;  // not exactly representable in decimal
  spec.policy = sim::SpeedLimitPolicy::kThrow;
  spec.params.move_cost_weight = 2.5;
  spec.params.max_step = 0.1;
  spec.params.order = sim::ServiceOrder::kServeThenMove;
  spec.starts = {geo::Point{0.1, 0.2}, geo::Point{-1.0, 2.0}, geo::Point{3.0, -4.5}};

  const TenantSpec back = serve::tenant_spec_from_json(serve::tenant_spec_to_json(spec));
  EXPECT_EQ(back.tenant, spec.tenant);
  EXPECT_EQ(back.algorithm, spec.algorithm);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.dim, spec.dim);
  EXPECT_EQ(back.fleet_size, spec.fleet_size);
  EXPECT_EQ(back.speed_factor, spec.speed_factor);  // exact: round-trip doubles
  EXPECT_EQ(back.policy, spec.policy);
  EXPECT_EQ(back.params.move_cost_weight, spec.params.move_cost_weight);
  EXPECT_EQ(back.params.max_step, spec.params.max_step);
  EXPECT_EQ(back.params.order, spec.params.order);
  EXPECT_EQ(back.starts, spec.starts);
}

TEST(ServeFrames, SnapshotEntryAllowsItsSlotAndRejectsEverythingElse) {
  TenantSpec spec;
  spec.tenant = "snap";
  spec.algorithm = "MtC";
  spec.dim = 2;
  spec.starts = {geo::Point{0.5, -1.0}};
  io::Json entry = serve::tenant_spec_to_json(spec);
  entry.set("slot", std::uint64_t{7});
  const TenantSpec back = serve::snapshot_spec_from_json(entry);
  EXPECT_EQ(back.tenant, spec.tenant);
  EXPECT_EQ(back.starts, spec.starts);
  // "slot" belongs to the snapshot table only; an `opened` spec rejects it.
  EXPECT_THROW((void)serve::tenant_spec_from_json(entry), FrameError);

  entry.set("bogus", std::uint64_t{1});
  try {
    (void)serve::snapshot_spec_from_json(entry);
    ADD_FAILURE() << "unknown member accepted";
  } catch (const FrameError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown member \"bogus\""), std::string::npos)
        << error.what();
    EXPECT_EQ(error.tenant(), "snap");
  }
}

TEST(ServeFrames, RateLimitsParseValidateAndRoundTrip) {
  const ClientFrame frame = parse(
      R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"rate":2.5,"burst":8})");
  EXPECT_EQ(frame.open.rate, 2.5);
  EXPECT_EQ(frame.open.rate_burst, 8.0);

  // Unlimited by default — and a rate-less spec serialises without the
  // members, so v1 snapshot payloads stay byte-identical.
  const ClientFrame bare =
      parse(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1})");
  EXPECT_EQ(bare.open.rate, 0.0);
  EXPECT_EQ(bare.open.rate_burst, 0.0);
  io::Json plain = serve::tenant_spec_to_json(bare.open);
  EXPECT_EQ(plain.find("rate"), nullptr);
  EXPECT_EQ(plain.find("burst"), nullptr);

  TenantSpec spec = frame.open;
  spec.tenant = "t";
  const TenantSpec back = serve::tenant_spec_from_json(serve::tenant_spec_to_json(spec));
  EXPECT_EQ(back.rate, 2.5);
  EXPECT_EQ(back.rate_burst, 8.0);

  // Validation names the offending member.
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,)"
                     R"("rate":-1})")
                .find("rate"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,)"
                     R"("burst":4})")
                .find("burst"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,)"
                     R"("rate":1,"burst":0.5})")
                .find("burst"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Server frame builders.
// ---------------------------------------------------------------------------

TEST(ServeFrames, ServerFramesAreOneJsonObjectWithAType) {
  core::SessionStats stats;
  stats.tenant = "t";
  stats.algorithm = "MtC";
  stats.steps = 3;
  stats.move_cost = 1.25;
  stats.service_cost = 0.5;
  stats.total_cost = 1.75;
  stats.positions = {geo::Point{1.0, 2.0}};
  core::MuxTotals totals;
  totals.sessions = 1;

  for (const std::string& line :
       {serve::outcome_frame("t", 2, 0.25, 0.5, stats, false),
        serve::busy_frame("t", 7, 64, 64), serve::error_frame(3, "boom", "t", true),
        serve::closed_frame(stats), serve::stats_frame({stats}, totals),
        serve::checkpointed_frame("/tmp/s.msrvss", 2, 100, "base", 512, 1),
        serve::bye_frame("eof", totals)}) {
    const io::Json doc = io::Json::parse(line);
    ASSERT_TRUE(doc.is_object()) << line;
    EXPECT_NE(doc.find("type"), nullptr) << line;
    EXPECT_EQ(line.find('\n'), std::string::npos) << "frames are single lines";
  }

  const io::Json outcome = io::Json::parse(serve::outcome_frame("t", 2, 0.25, 0.5, stats, false));
  EXPECT_EQ(outcome.at("t").as_uint64(), 2u);
  EXPECT_EQ(outcome.at("move").as_double(), 0.25);
  EXPECT_EQ(outcome.at("total").as_double(), 1.75);
  EXPECT_EQ(outcome.at("positions").as_array().size(), 1u);
  // Lean outcomes omit positions.
  const io::Json lean = io::Json::parse(serve::outcome_frame("t", 2, 0.25, 0.5, stats, true));
  EXPECT_EQ(lean.find("positions"), nullptr);

  const io::Json error = io::Json::parse(serve::error_frame(3, "boom", "t", true));
  EXPECT_EQ(error.at("line").as_uint64(), 3u);
  EXPECT_EQ(error.at("closed").as_bool(), true);
  // Unattributed errors carry no tenant member at all.
  const io::Json anon = io::Json::parse(serve::error_frame(0, "boom", "", false));
  EXPECT_EQ(anon.find("tenant"), nullptr);
  EXPECT_EQ(anon.find("line"), nullptr);
}

// ---------------------------------------------------------------------------
// The tenant-row writer against a DOM oracle. The oracle is the io::Json
// renderer the frames used before the writer existed, kept here verbatim:
// every surface that carries tenant rows (the `closed`, `stats` and
// `metrics` frames and the --metrics-out tenant line) must stay byte-equal
// to it over seeded rows with hostile names and awkward doubles.
// ---------------------------------------------------------------------------

io::Json dom_stats_to_json(const core::SessionStats& stats, const serve::TenantObsRow* row) {
  io::Json doc = io::Json::object();
  doc.set("tenant", stats.tenant);
  doc.set("algorithm", stats.algorithm);
  doc.set("k", stats.fleet_size);
  doc.set("steps", stats.steps);
  doc.set("move", stats.move_cost);
  doc.set("service", stats.service_cost);
  doc.set("total", stats.total_cost);
  doc.set("closed", stats.closed);
  if (row != nullptr) {
    doc.set("queued", stats.horizon - stats.steps);
    doc.set("reqs", row->reqs);
    doc.set("outcomes", row->outcomes);
    doc.set("busys", row->busys);
    doc.set("errors", row->errors);
    doc.set("inflight_hwm", row->inflight_hwm);
    doc.set("throttled", stats.throttled_rounds);
    doc.set("ingest_latency_ns", obs::summary_to_json(row->ingest_latency));
  }
  return doc;
}

/// {<lead members>, <stats_to_json members>} — how the DOM frames spliced a row.
io::Json dom_spliced(io::Json doc, const core::SessionStats& stats,
                     const serve::TenantObsRow* row) {
  io::Json body = dom_stats_to_json(stats, row);
  for (io::Json::Member& member : body.as_object())
    doc.set(std::move(member.first), std::move(member.second));
  return doc;
}

std::string dom_closed_frame(const core::SessionStats& stats) {
  io::Json doc = io::Json::object();
  doc.set("type", "closed");
  return dom_spliced(std::move(doc), stats, nullptr).dump();
}

io::Json dom_tenant_rows(const std::vector<core::SessionStats>& stats,
                         const std::vector<serve::TenantObsRow>* rows) {
  io::Json tenants = io::Json::array();
  for (std::size_t i = 0; i < stats.size(); ++i)
    tenants.push_back(dom_stats_to_json(stats[i], rows != nullptr ? &(*rows)[i] : nullptr));
  return tenants;
}

std::string dom_stats_frame(const std::vector<core::SessionStats>& stats,
                            const core::MuxTotals& totals,
                            const std::vector<serve::TenantObsRow>* rows, bool degraded) {
  io::Json doc = io::Json::object();
  doc.set("type", "stats");
  doc.set("tenants", dom_tenant_rows(stats, rows));
  doc.set("sessions", totals.sessions);
  doc.set("live", totals.live);
  doc.set("steps", totals.steps);
  doc.set("move", totals.move_cost);
  doc.set("service", totals.service_cost);
  doc.set("total", totals.total_cost);
  if (rows != nullptr) {
    doc.set("active_sessions", totals.active);
    doc.set("throttled", totals.throttled);
    doc.set("queue_depth", totals.queue_depth);
    doc.set("step_latency_ns", obs::summary_to_json(totals.step_latency));
    doc.set("steps_per_session", obs::summary_to_json(totals.steps_per_session));
    doc.set("degraded", degraded);
  }
  return doc.dump();
}

std::string dom_metrics_frame(const io::Json::Array& metrics,
                              const std::vector<core::SessionStats>& stats,
                              const std::vector<serve::TenantObsRow>& rows) {
  io::Json doc = io::Json::object();
  doc.set("type", "metrics");
  doc.set("v", serve::kProtocolVersion);
  doc.set("metrics", io::Json(metrics));
  doc.set("tenants", dom_tenant_rows(stats, &rows));
  return doc.dump();
}

std::string dom_tenant_line(const core::SessionStats& stats, const serve::TenantObsRow& row) {
  io::Json doc = io::Json::object();
  doc.set("kind", "tenant");
  return dom_spliced(std::move(doc), stats, &row).dump();
}

/// Names built from JSON's awkward bytes: quotes, backslashes, every kind
/// of control byte (NUL included), DEL, and multi-byte UTF-8.
std::string hostile_name(stats::Rng& rng) {
  static const std::vector<std::string> kPieces = {
      "\"", "\\", "\n", "\r", "\t", "\b", "\f", std::string(1, '\0'), "\x01", "\x1f",
      "\x7f", "\xc3\xa9", "\xe6\x97\xa5\xe6\x9c\xac", "\xf0\x9f\x9a\x80", "/", "t", "42", " "};
  std::string name;
  const std::int64_t pieces = rng.uniform_int(0, 10);
  for (std::int64_t i = 0; i < pieces; ++i)
    name += kPieces[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kPieces.size()) - 1))];
  return name;
}

double awkward_double(stats::Rng& rng) {
  switch (rng.uniform_int(0, 8)) {
    case 0:
      return -0.0;
    case 1:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.uniform_int(1, 1 << 20));  // subnormal
    case 2:
      return 1e300;
    case 3:
      return static_cast<double>(rng.uniform_int(0, 1 << 30));  // integral
    case 4:
      return std::numeric_limits<double>::max();
    case 5: {
      const double bits = std::bit_cast<double>(rng());  // any finite pattern
      return std::isfinite(bits) ? bits : 0.0;
    }
    case 6:
      return 0.1 * static_cast<double>(rng.uniform_int(-1000, 1000));
    default:
      return rng.uniform(0.0, 1e4);
  }
}

/// Small counts mostly, occasionally the full 64-bit range.
std::uint64_t awkward_count(stats::Rng& rng) {
  return rng() >> rng.uniform_int(0, 63);
}

core::SessionStats random_stats(stats::Rng& rng) {
  core::SessionStats stats;
  stats.tenant = hostile_name(rng);
  stats.algorithm = rng.coin() ? "MtC" : hostile_name(rng);
  stats.fleet_size = static_cast<std::size_t>(rng.uniform_int(1, 16));
  stats.steps = awkward_count(rng) >> 1;
  stats.horizon = stats.steps + (awkward_count(rng) >> 1);
  stats.closed = rng.coin();
  stats.move_cost = awkward_double(rng);
  stats.service_cost = awkward_double(rng);
  stats.total_cost = awkward_double(rng);
  stats.throttled_rounds = awkward_count(rng);
  return stats;
}

obs::HistogramSummary random_summary(stats::Rng& rng) {
  obs::HistogramSummary summary;
  if (rng.coin()) return summary;  // an empty histogram
  summary.count = awkward_count(rng);
  summary.sum = awkward_count(rng);
  summary.p50 = awkward_count(rng);
  summary.p90 = awkward_count(rng);
  summary.p99 = awkward_count(rng);
  summary.max = awkward_count(rng);
  return summary;
}

serve::TenantObsRow random_obs_row(stats::Rng& rng) {
  serve::TenantObsRow row;
  row.reqs = awkward_count(rng);
  row.outcomes = awkward_count(rng);
  row.busys = awkward_count(rng);
  row.errors = awkward_count(rng);
  row.inflight_hwm = awkward_count(rng);
  row.ingest_latency = random_summary(rng);
  return row;
}

TEST(ServeFrames, TenantRowWriterMatchesTheDomOracleOnEveryFrame) {
  stats::Rng rng(0xD0E);
  obs::Registry registry;
  registry.counter("serve.reqs_total", "frames", "reqs").inc(7);
  registry.histogram("serve.ingest_latency_ns", "ns", "latency").record(1234);
  const io::Json::Array metrics = registry.to_json();

  for (std::size_t rows_checked = 0; rows_checked < 10'000;) {
    std::vector<core::SessionStats> stats(static_cast<std::size_t>(rng.uniform_int(0, 7)));
    std::vector<serve::TenantObsRow> rows;
    for (core::SessionStats& row_stats : stats) {
      row_stats = random_stats(rng);
      rows.push_back(random_obs_row(rng));
      const std::string closed = serve::closed_frame(row_stats);
      ASSERT_EQ(closed, dom_closed_frame(row_stats));
      // The parser (separate code from both writers) reads the name back.
      ASSERT_EQ(io::Json::parse(closed).at("tenant").as_string(), row_stats.tenant);
    }
    rows_checked += stats.size();
    core::MuxTotals totals;
    totals.sessions = awkward_count(rng);
    totals.live = awkward_count(rng);
    totals.active = awkward_count(rng);
    totals.steps = awkward_count(rng);
    totals.move_cost = awkward_double(rng);
    totals.service_cost = awkward_double(rng);
    totals.total_cost = awkward_double(rng);
    totals.throttled = awkward_count(rng);
    totals.queue_depth = awkward_count(rng);
    totals.step_latency = random_summary(rng);
    totals.steps_per_session = random_summary(rng);
    const bool degraded = rng.coin();
    ASSERT_EQ(serve::stats_frame(stats, totals), dom_stats_frame(stats, totals, nullptr, false));
    ASSERT_EQ(serve::stats_frame(stats, totals, &rows, degraded),
              dom_stats_frame(stats, totals, &rows, degraded));
    ASSERT_EQ(serve::metrics_frame(metrics, stats, rows), dom_metrics_frame(metrics, stats, rows));
  }
}

// The --metrics-out tenant line, through the production full render
// (snapshot_ndjson takes the per-slot stats as given, so seeded rows reach
// it unchanged); the telemetry rows carry real histograms, empty or full.
TEST(ServeFrames, MetricsOutTenantLinesMatchTheDomOracle) {
  stats::Rng rng(0x7E1);
  par::ThreadPool pool(1);
  const core::SessionMultiplexer mux(pool);
  std::size_t lines_checked = 0;
  for (int chunk = 0; chunk < 10; ++chunk) {
    serve::ServeTelemetry telemetry(/*lean=*/false);
    std::vector<core::SessionStats> stats(1000);
    for (std::size_t slot = 0; slot < stats.size(); ++slot) {
      stats[slot] = random_stats(rng);
      serve::TenantTelemetry& row = telemetry.tenant_row(slot, stats[slot].tenant);
      row.reqs = awkward_count(rng);
      row.outcomes = awkward_count(rng);
      row.busys = awkward_count(rng);
      row.errors = awkward_count(rng);
      row.inflight_hwm = awkward_count(rng);
      const std::int64_t samples = rng.coin() ? 0 : rng.uniform_int(1, 200);
      for (std::int64_t i = 0; i < samples; ++i) row.ingest_latency.record(awkward_count(rng));
    }
    std::istringstream render(telemetry.snapshot_ndjson(mux, stats));
    std::string line;
    std::size_t slot = 0;
    while (std::getline(render, line)) {
      if (line.rfind(R"({"kind":"tenant")", 0) != 0) continue;
      ASSERT_LT(slot, stats.size());
      ASSERT_EQ(line, dom_tenant_line(stats[slot], telemetry.row(slot)->row())) << "slot " << slot;
      ++slot;
    }
    ASSERT_EQ(slot, stats.size());
    lines_checked += slot;
  }
  EXPECT_GE(lines_checked, 10'000u);
}

// ---------------------------------------------------------------------------
// The `req` fast path against the DOM reader. parse_client_frame tries
// scan_req_frame first, so on every line what it returns (type, tenant and
// the bits of every coordinate) or throws (text and tenant) must equal what
// the DOM reader alone makes of that line.
// ---------------------------------------------------------------------------

/// A reader's verdict on one line, as text.
std::string verdict(const ClientFrame& frame) {
  std::string out = "frame type " + std::to_string(static_cast<int>(frame.type)) +
                    " tenant \"" + frame.tenant + "\"";
  for (const sim::Point& p : frame.batch.requests) {
    out += " [";
    for (int i = 0; i < p.dim(); ++i) out += ' ' + std::to_string(std::bit_cast<std::uint64_t>(p[i]));
    out += " ]";
  }
  return out;
}

template <class Read>
std::string verdict_of(const Read& read, std::string_view line) {
  try {
    return verdict(read(line));
  } catch (const FrameError& error) {
    return std::string("error ") + error.what() + " tenant \"" + error.tenant() + "\"";
  }
}

/// Checks every way into the readers on \p line against the DOM reader
/// alone. \p reused carries the buffers of every earlier line; \p fast
/// counts the lines the scanner took.
void expect_readers_agree(std::string_view line, ClientFrame& reused, std::size_t& fast) {
  const std::string dom = verdict_of(serve::parse_client_frame_dom, line);
  EXPECT_EQ(verdict_of([](std::string_view l) { return serve::parse_client_frame(l); }, line),
            dom)
      << line;
  const auto into_reused = [&reused](std::string_view l) -> const ClientFrame& {
    serve::parse_client_frame(l, reused);
    return reused;
  };
  EXPECT_EQ(verdict_of(into_reused, line), dom) << line;
  ClientFrame scanned;
  if (serve::scan_req_frame(line, scanned)) {
    ++fast;
    EXPECT_EQ(verdict(scanned), dom) << line;
  }
}

/// Number spellings inside JSON's grammar that stress the conversion: both
/// ends of the exponent range, integers past 2^53 and 2^64, and finite
/// spellings of values that are not finite doubles.
const std::vector<std::string> kStrictNumbers = {
    "0", "-0", "-0.0", "0.5", "1E5", "1e+5", "2.5E-3", "1e-310", "4.9e-324", "2e-324",
    "1e-400", "1e400", "-1e400", "1.7976931348623157e308", "1.8e308", "1.4999999999999996",
    "9007199254740993", "-9007199254740993", "18446744073709551615", "18446744073709551616",
    "-9223372036854775808", "-9223372036854775809", "123456789012345678901234567890"};
/// Spellings outside JSON's grammar: the DOM reader decides what they mean.
const std::vector<std::string> kLooseNumbers = {
    "01", "-01", "00", "1.", "-", ".5", "+1", "1e", "1e+", "0x10", "1.5.2", "--1", "1e5e5",
    "NaN", "Infinity", "-Infinity", "1_0", "true", "null", "\"1\"", "[1]"};

template <class T>
const T& pick(stats::Rng& rng, const std::vector<T>& from) {
  return from[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
}

std::string valid_number(stats::Rng& rng) {
  if (rng.uniform_int(0, 7) == 0) return pick(rng, kStrictNumbers);
  std::string out;
  io::append_double(out, awkward_double(rng));
  return out;
}

/// A batch of \p n points of \p dim coordinates each, written canonically.
std::string batch_text(stats::Rng& rng, std::int64_t n, std::int64_t dim) {
  std::string out = "[";
  for (std::int64_t i = 0; i < n; ++i) {
    out += i == 0 ? "[" : ",[";
    for (std::int64_t d = 0; d < dim; ++d) {
      if (d != 0) out += ',';
      out += valid_number(rng);
    }
    out += ']';
  }
  return out + "]";
}

std::string plain_name(stats::Rng& rng) {
  std::string name;
  const std::int64_t length = rng.uniform_int(0, 10);
  for (std::int64_t i = 0; i < length; ++i) {
    char c = static_cast<char>(rng.uniform_int(0x20, 0x7e));
    if (c == '"' || c == '\\') c = '_';
    name += c;
  }
  return name;
}

std::string req_text(const std::string& name, const std::string& batch) {
  return R"({"type":"req","tenant":")" + name + R"(","batch":)" + batch + "}";
}

/// A seeded `req` line: canonical, or one of the variants the scanner
/// must hand to the DOM reader.
std::string random_req(stats::Rng& rng) {
  const std::string name = plain_name(rng);
  const std::int64_t dim = rng.uniform_int(1, sim::Point::kMaxDim);
  const std::string batch = batch_text(rng, rng.uniform_int(0, 5), dim);
  std::string line = req_text(name, batch);
  switch (rng.uniform_int(0, 23)) {
    case 0: {  // whitespace or a newline anywhere
      static const std::vector<std::string> kSpace = {" ", "\t", "\n", "\r"};
      line.insert(static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(line.size()))),
                  pick(rng, kSpace));
      return line;
    }
    case 1:  // members in another order
      return rng.coin() ? R"({"tenant":")" + name + R"(","type":"req","batch":)" + batch + "}"
                        : R"({"type":"req","batch":)" + batch + R"(,"tenant":")" + name + "\"}";
    case 2:  // a version member
      return rng.coin() ? R"({"type":"req","v":1,"tenant":")" + name + R"(","batch":)" + batch + "}"
                        : line.substr(0, line.size() - 1) + (rng.coin() ? R"(,"v":1})" : R"(,"v":2})");
    case 3: {  // escapes in the name
      static const std::vector<std::string> kEscapes = {"\\\"", "\\\\", "\\/", "\\u0041", "\\n",
                                                        "\\ud83d\\ude80", "\\ud83d", "\\x"};
      return req_text(name + pick(rng, kEscapes) + name, batch);
    }
    case 4: {  // UTF-8 and raw control bytes in the name
      static const std::vector<std::string> kBytes = {"\xc3\xa9", "\xe6\x97\xa5", "\xf0\x9f\x9a\x80",
                                                      "\x7f", "\x80", "\xff", std::string(1, '\0'),
                                                      "\x01"};
      return req_text(name + pick(rng, kBytes), batch);
    }
    case 5: {  // one coordinate outside the strict grammar
      std::string loose = "[[" + pick(rng, kLooseNumbers) + "]]";
      if (rng.coin()) loose = "[[1," + pick(rng, kLooseNumbers) + "],[2,3]]";
      return req_text(name, loose);
    }
    case 6:  // mixed dimensions
      return req_text(name, "[[1,2]," + batch_text(rng, 1, rng.uniform_int(1, 3)).substr(1));
    case 7:  // 0 or 9 coordinates
      return req_text(name, rng.coin() ? "[[]]" : batch_text(rng, 1, sim::Point::kMaxDim + 1));
    case 8: {  // trailing bytes
      static const std::vector<std::string> kTails = {" ", "x", "}", "\n", ",", "]",
                                                      std::string(1, '\0')};
      return line + pick(rng, kTails);
    }
    case 9: {  // a batch or request of the wrong shape
      static const std::vector<std::string> kShapes = {"5", "{}", "[1,2]", "[[1],2]", "\"[[1]]\"",
                                                       "null", "[[1]", "[[1]],", "[[1],]", "[,[1]]"};
      return req_text(name, pick(rng, kShapes));
    }
    case 10:  // a tenant that is not a string, or no tenant
      return rng.coin() ? R"({"type":"req","tenant":5,"batch":)" + batch + "}"
                        : R"({"type":"req","batch":)" + batch + "}";
    case 11:  // an empty batch
      return req_text(name, "[]");
    default:  // canonical
      return line;
  }
}

TEST(ServeFrames, ReqScannerAgreesWithTheDomReaderOnSeededLines) {
  stats::Rng rng(0x5CA7);
  ClientFrame reused;
  std::size_t fast = 0;
  constexpr std::size_t kLines = 20'000;
  for (std::size_t i = 0; i < kLines && !HasFailure(); ++i)
    expect_readers_agree(random_req(rng), reused, fast);
  // Both readers took a real share of the lines.
  EXPECT_GT(fast, kLines / 4);
  EXPECT_LT(fast, kLines - kLines / 8);
}

TEST(ServeFrames, ReqScannerAgreesWithTheDomReaderOnEveryTruncationAndByteSubstitution) {
  stats::Rng rng(0x7A11);
  const std::vector<std::string> lines = {
      R"({"type":"req","tenant":"t42","batch":[[-1.25,0.5],[3,-0],[1e-310,2.5E+3]]})",
      R"({"type":"req","tenant":"","batch":[]})",
      req_text(plain_name(rng), batch_text(rng, 3, 2)),
  };
  ClientFrame reused;
  std::size_t fast = 0;
  for (const std::string& line : lines) {
    expect_readers_agree(line, reused, fast);
    for (std::size_t n = 0; n < line.size() && !HasFailure(); ++n)
      expect_readers_agree(std::string_view(line).substr(0, n), reused, fast);
    for (std::size_t at = 0; at < line.size() && !HasFailure(); ++at) {
      std::string mutant = line;
      for (int byte = 0; byte < 256; ++byte) {
        mutant[at] = static_cast<char>(byte);
        expect_readers_agree(mutant, reused, fast);
      }
    }
  }
  EXPECT_GT(fast, lines.size());
}

// ---------------------------------------------------------------------------
// The `outcome` writer against a DOM render of the same members.
// ---------------------------------------------------------------------------

std::string dom_outcome(std::string_view tenant, std::size_t t, double move, double service,
                        const core::SessionProgress& progress,
                        const std::vector<sim::Point>& positions, bool lean) {
  io::Json doc = io::Json::object();
  doc.set("type", "outcome");
  doc.set("tenant", tenant);
  doc.set("t", t);
  doc.set("move", move);
  doc.set("service", service);
  doc.set("move_total", progress.move_cost);
  doc.set("service_total", progress.service_cost);
  doc.set("total", progress.total_cost);
  if (!lean) {
    io::Json list = io::Json::array();
    for (const sim::Point& p : positions) {
      io::Json coords = io::Json::array();
      for (int i = 0; i < p.dim(); ++i) coords.push_back(p[i]);
      list.push_back(std::move(coords));
    }
    doc.set("positions", std::move(list));
  }
  return doc.dump();
}

/// awkward_double plus both zeros, the ledger's 1.4999999999999996 and
/// doubles spread over the whole exponent range.
double outcome_double(stats::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return rng.coin() ? 0.0 : -0.0;
    case 1:
      return 1.4999999999999996;
    case 2:
      return (rng.coin() ? 1.0 : -1.0) *
             std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.uniform_int(-1074, 1023)));
    default:
      return awkward_double(rng);
  }
}

TEST(ServeFrames, OutcomeWriterMatchesTheDomOracle) {
  stats::Rng rng(0x0C0E);
  std::string out;
  for (int i = 0; i < 10'000; ++i) {
    const std::string tenant = hostile_name(rng);
    const std::size_t t = awkward_count(rng);
    const double move = outcome_double(rng);
    const double service = outcome_double(rng);
    core::SessionStats stats;
    stats.steps = awkward_count(rng);
    stats.move_cost = outcome_double(rng);
    stats.service_cost = outcome_double(rng);
    stats.total_cost = outcome_double(rng);
    const int dim = static_cast<int>(rng.uniform_int(1, 3));
    for (std::int64_t k = rng.uniform_int(1, 4); k > 0; --k) {
      sim::Point p(dim);
      for (int d = 0; d < dim; ++d) p[d] = outcome_double(rng);
      stats.positions.push_back(p);
    }
    const core::SessionProgress progress = {stats.steps, stats.move_cost, stats.service_cost,
                                            stats.total_cost, 0};
    for (const bool lean : {false, true}) {
      const std::string expected = dom_outcome(tenant, t, move, service, progress,
                                               stats.positions, lean);
      // append_outcome appends: the line lands after whatever was there.
      out = "prefix\n";
      serve::append_outcome(out, tenant, t, move, service, progress, stats.positions, lean);
      ASSERT_EQ(out, "prefix\n" + expected);
      ASSERT_EQ(serve::outcome_frame(tenant, t, move, service, stats, lean), expected);
    }
  }
}

TEST(ServeFrames, OutcomeLinesArePinned) {
  std::string lean;
  serve::append_outcome(lean, "t7", 41, 1.4999999999999996, 0.25, {42, 10.5, 3.0, 13.5, 0}, {},
                        true);
  EXPECT_EQ(lean,
            R"({"type":"outcome","tenant":"t7","t":41,"move":1.4999999999999996,)"
            R"("service":0.25,"move_total":10.5,"service_total":3,"total":13.5})");
  const std::vector<sim::Point> fleet = {geo::Point{-0.0, 1e-310}, geo::Point{2.5, -3.0}};
  std::string full;
  serve::append_outcome(full, "a\"b", 0, -0.0, 5e-324, {1, 0.0, 1e300, 1e300, 0}, fleet, false);
  EXPECT_EQ(full,
            R"({"type":"outcome","tenant":"a\"b","t":0,"move":-0,"service":5e-324,)"
            R"("move_total":0,"service_total":1e+300,"total":1e+300,)"
            R"("positions":[[-0,1e-310],[2.5,-3]]})");
}

}  // namespace
}  // namespace mobsrv
