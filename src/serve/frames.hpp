/// \file frames.hpp
/// The mobsrv_serve wire protocol: versioned NDJSON frames.
///
/// The service speaks newline-delimited JSON in both directions: every line
/// is one complete JSON object ("frame") with a `type` member. Client
/// frames open tenants, stream request batches, and control the service;
/// server frames acknowledge, report per-step outcomes, apply backpressure
/// (`busy` — never a silent drop) and surface errors with the line number
/// of the offending input (`error` — one bad tenant never takes the
/// process down).
///
/// Versioning follows the trace-format discipline: an `open` frame must
/// declare `"v": 1` (the protocol version this build speaks); any frame may
/// carry `v`, and a mismatch is rejected loudly. Doubles ride through
/// io::Json, so every cost and coordinate round-trips bit-exactly — the
/// foundation of the kill/restore bit-identity guarantee.
///
/// docs/SERVICE.md is the operator-facing reference for every frame type.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/session_multiplexer.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "sim/model.hpp"

namespace mobsrv::serve {

/// Protocol version this build speaks; `open` frames must declare it.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// A tenant's admission contract, declared once by its `open` frame: who it
/// is, which strategy serves it, the fleet size/geometry, and the engine
/// options. Everything the service needs to (re)build the session — the
/// snapshot file persists these so a restarted service re-admits every
/// tenant without new `open` frames.
struct TenantSpec {
  std::string tenant;
  std::string algorithm;
  std::uint64_t seed = 0;
  int dim = 1;
  std::size_t fleet_size = 1;
  double speed_factor = 1.0;
  /// kClamp by default: a live service prefers clamping a misbehaving
  /// strategy to the speed limit over rejecting its step. `"policy":
  /// "throw"` restores the strict contract (a violation then closes the
  /// tenant with an `error` frame).
  sim::SpeedLimitPolicy policy = sim::SpeedLimitPolicy::kClamp;
  sim::ModelParams params;
  /// Start layout, size fleet_size (parse fills it: explicit `starts`,
  /// a shared `start`, or the origin).
  std::vector<sim::Point> starts;
  /// Scheduler rate limit: steps this tenant may consume per mux round
  /// (fractions allowed — 0.5 means a step every other round). 0 = no
  /// limit. Declared by the `open` frame's `rate` member or the service's
  /// --default-rate; enforced by core::SessionMultiplexer's token bucket.
  double rate = 0.0;
  /// Token-bucket burst capacity (whole steps a tenant may save up).
  /// 0 = derive from the rate (max(1, rate)); only meaningful with rate>0.
  double rate_burst = 0.0;
};

/// JSON round-trip for TenantSpec (the snapshot file and the `opened`
/// acknowledgement both use it). from_json throws FrameError.
[[nodiscard]] io::Json tenant_spec_to_json(const TenantSpec& spec);
[[nodiscard]] TenantSpec tenant_spec_from_json(const io::Json& doc);
/// tenant_spec_from_json for a snapshot table entry, which also carries the
/// writer's "slot" (the caller reads it): the same checks and errors,
/// parsed where the entry sits.
[[nodiscard]] TenantSpec snapshot_spec_from_json(const io::Json& entry);

/// Client frame kinds.
enum class FrameType {
  kOpen,        ///< admit a tenant (declares the TenantSpec)
  kReq,         ///< one step's request batch for a tenant
  kClose,       ///< drain and close a tenant
  kStats,       ///< report accounting (one tenant or all)
  kMetrics,     ///< dump the full metrics registry + per-tenant telemetry
  kCheckpoint,  ///< save a snapshot now
  kShutdown,    ///< drain everything, snapshot, say bye, exit
  kKill,        ///< exit immediately, no drain/snapshot (crash-test aid)
};

/// One parsed client frame (a tagged fat struct: only the members relevant
/// to `type` are meaningful).
struct ClientFrame {
  FrameType type = FrameType::kStats;
  TenantSpec open;            ///< kOpen
  std::string tenant;         ///< kReq/kClose, optional for kStats
  sim::RequestBatch batch;    ///< kReq (may be empty — an idle step)
};

/// Thrown on malformed frames. Carries the tenant the frame named (empty
/// when the line was too broken to attribute), so the service can close
/// only the offending tenant.
class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& what, std::string tenant = {})
      : std::runtime_error(what), tenant_(std::move(tenant)) {}

  /// Tenant named by the offending frame; empty when unattributable.
  [[nodiscard]] const std::string& tenant() const noexcept { return tenant_; }

 private:
  std::string tenant_;
};

/// Parses one NDJSON line into a client frame. Rejects unknown frame
/// types, unknown members (a typo'd `"batc"` must fail loudly, not be
/// ignored), missing required members, and protocol-version mismatches.
/// Throws FrameError, attributed to the frame's tenant when one was named.
[[nodiscard]] ClientFrame parse_client_frame(std::string_view line);

/// parse_client_frame into \p frame, whose tenant name and batch keep their
/// capacity from one call to the next: a served `req` step allocates
/// nothing here. Members that the parsed type does not use may keep
/// earlier values; after a throw, \p frame holds no meaningful value.
void parse_client_frame(std::string_view line, ClientFrame& frame);

/// The two readers behind parse_client_frame, public so that tests can hold
/// one against the other.
///
/// scan_req_frame is the fast path. It reads only the canonical `req` shape
/// `{"type":"req","tenant":"<name>","batch":[[x,...],...]}`: no whitespace,
/// members in that order, no `v`, a name without backslashes, control
/// bytes or bytes >= 0x80, numbers in strict JSON grammar that parse to
/// finite doubles, 1..kMaxDim coordinates per request and one dimension per
/// batch. On such a line it fills \p frame as the DOM reader would and
/// returns true. On any other line it returns false (with \p frame's tenant
/// and batch unspecified), and the line belongs to the DOM reader.
[[nodiscard]] bool scan_req_frame(std::string_view line, ClientFrame& frame);
/// The DOM reader: the whole grammar and every error text.
[[nodiscard]] ClientFrame parse_client_frame_dom(std::string_view line);

// ---------------------------------------------------------------------------
// Server frame builders. Each returns one compact JSON line (no trailing
// newline); doubles are written in shortest round-trip form.
// ---------------------------------------------------------------------------

/// Acknowledges an `open`: echoes the admitted spec.
[[nodiscard]] std::string opened_frame(const TenantSpec& spec);

/// One consumed step. `move`/`service` are this step's deltas of the
/// session's cost accumulators; `move_total`/`service_total`/`total` are
/// the exact accumulators (bit-identical across restarts). Positions are
/// included unless \p lean.
[[nodiscard]] std::string outcome_frame(const std::string& tenant, std::size_t t,
                                        double move_delta, double service_delta,
                                        const core::SessionStats& stats, bool lean);

/// outcome_frame's line (no trailing newline) appended to \p out, with no
/// DOM: the accumulators come from \p progress, and \p positions is the
/// fleet, written unless \p lean.
void append_outcome(std::string& out, std::string_view tenant, std::size_t t,
                    double move_delta, double service_delta,
                    const core::SessionProgress& progress,
                    std::span<const sim::Point> positions, bool lean);

/// Backpressure: the `req` frame on input line \p line was NOT accepted
/// (the tenant's in-flight queue is full); the client must re-send it.
[[nodiscard]] std::string busy_frame(const std::string& tenant, std::uint64_t line,
                                     std::size_t queued, std::size_t limit);

/// A malformed or failing frame. \p line is the 1-based input line number
/// (0 when the error is not tied to a line). \p tenant is empty when the
/// error could not be attributed; \p closed_tenant says whether the
/// offending tenant was closed as a consequence.
[[nodiscard]] std::string error_frame(std::uint64_t line, const std::string& message,
                                      const std::string& tenant, bool closed_tenant);

/// Final accounting of a tenant that was just closed.
[[nodiscard]] std::string closed_frame(const core::SessionStats& stats);

/// Per-tenant serve-side telemetry riding the enriched `stats` frame and
/// the `metrics` frame (docs/OBSERVABILITY.md). Produced by
/// serve::ServeTelemetry, one row per mux slot (slot ids are dense and
/// never reused, so rows survive tenant churn).
struct TenantObsRow {
  std::uint64_t reqs = 0;      ///< accepted + bounced req frames
  std::uint64_t outcomes = 0;  ///< outcome frames emitted
  std::uint64_t busys = 0;     ///< busy bounces
  std::uint64_t errors = 0;    ///< error frames that closed this tenant
  std::size_t inflight_hwm = 0;  ///< max queued-but-unconsumed steps seen
  obs::HistogramSummary ingest_latency;  ///< accept -> outcome wall ns
};

/// Accounting snapshot: per-tenant rows plus the aggregate. When \p rows is
/// non-null (size matching \p stats, indexed by slot id) each tenant row is
/// enriched with the serve-side telemetry and the aggregate gains
/// active_sessions / throttled / queue_depth / step_latency_ns /
/// steps_per_session — all appended after the v1 members, so old consumers
/// keep working byte-for-byte.
/// \p degraded mirrors the serve.degraded gauge into the enriched
/// aggregate (rows != nullptr); the v1 (rows == nullptr) frame is
/// unchanged.
[[nodiscard]] std::string stats_frame(const std::vector<core::SessionStats>& stats,
                                      const core::MuxTotals& totals,
                                      const std::vector<TenantObsRow>* rows = nullptr,
                                      bool degraded = false);

/// Full registry dump: {"type":"metrics","v":1,"metrics":[...],
/// "tenants":[...]} — every registered metric's current value plus the
/// per-tenant telemetry rows (same shape as the enriched stats rows).
[[nodiscard]] std::string metrics_frame(const io::Json::Array& metrics,
                                        const std::vector<core::SessionStats>& stats,
                                        const std::vector<TenantObsRow>& rows);

/// Acknowledges a snapshot save. \p mode is "base" or "delta" (how the
/// save was persisted), \p bytes the encoded segment size, \p segments the
/// chain length after the save — appended after the v1 members.
[[nodiscard]] std::string checkpointed_frame(const std::string& path, std::size_t sessions,
                                             std::size_t steps, const std::string& mode,
                                             std::uint64_t bytes, std::size_t segments);

/// Farewell frame emitted on graceful exit (shutdown frame, EOF, SIGTERM).
[[nodiscard]] std::string bye_frame(const std::string& reason, const core::MuxTotals& totals);

/// Appends the per-tenant accounting members shared by the `closed` frame,
/// the `stats`/`metrics` tenant rows and the --metrics-out tenant line —
/// `"tenant":...` through `"closed":...`, without the enclosing braces —
/// straight into \p out, with no DOM. With a non-null \p row the
/// serve-side telemetry members (queued, reqs, outcomes, busys, errors,
/// inflight_hwm, throttled, ingest_latency_ns) are appended. The one
/// tenant-row renderer: every surface above produces its rows here.
void append_tenant_members(std::string& out, const core::SessionStats& stats,
                           const TenantObsRow* row = nullptr);

}  // namespace mobsrv::serve
