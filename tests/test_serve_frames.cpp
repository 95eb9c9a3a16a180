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

}  // namespace
}  // namespace mobsrv
