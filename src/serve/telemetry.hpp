/// \file telemetry.hpp
/// The service's observability surface: registry, journal, per-tenant rows.
///
/// ServeTelemetry owns everything the telemetry layer adds to the serve
/// loop: the obs::Registry of service-wide metrics (stable names, catalogued
/// in docs/OBSERVABILITY.md), the bounded obs::Journal of lifecycle events,
/// and one TenantTelemetry row per mux slot (slot ids are dense and never
/// reused, so a row outlives its tenant and per-tenant accounting survives
/// churn). Service calls inc()/record() at each wiring site; collect()
/// assembles the full registry dump (including the mux-owned metrics) for
/// the `metrics` frame and metrics_cut() renders the --metrics-out file,
/// re-rendering only the tenant rows touched since the previous cut.
/// Everything here is observational only: results are bit-identical with
/// telemetry on, off, or --lean (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/session_multiplexer.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/frames.hpp"

namespace mobsrv::serve {

/// One catalog row: what `mobsrv_serve --dump-metrics` prints and
/// tools/check_metrics_docs.py cross-checks against docs/OBSERVABILITY.md.
struct MetricInfo {
  std::string name;
  std::string type;  ///< "counter" | "gauge" | "histogram"
  std::string unit;
  std::string help;
};

/// Every metric this build can emit — the registry-backed serve.* names
/// plus the mux/journal-owned ones that collect() pulls in externally.
/// Single source of truth: the frame, the snapshot and the catalog cannot
/// drift apart.
[[nodiscard]] std::vector<MetricInfo> metric_catalog();

/// Per-tenant serve-side counters, one per mux slot.
struct TenantTelemetry {
  std::string tenant;
  std::uint64_t reqs = 0;      ///< accepted + bounced req frames
  std::uint64_t outcomes = 0;  ///< outcome frames emitted
  std::uint64_t busys = 0;     ///< busy bounces
  std::uint64_t errors = 0;    ///< error frames that closed this tenant
  std::size_t inflight_hwm = 0;
  obs::Histogram ingest_latency;  ///< accept -> outcome wall ns

  /// FIFO of accept timestamps for steps accepted but not yet consumed
  /// (head index instead of pop_front keeps accepts allocation-amortised).
  void push_accept(std::uint64_t ns);
  /// Timestamp of the oldest accepted-but-unconsumed step, 0 when none
  /// (e.g. steps restored from a snapshot were accepted by a previous
  /// process and carry no stamp).
  std::uint64_t pop_accept();

  [[nodiscard]] TenantObsRow row() const;

  /// True when this row or its slot's mux accounting changed since `line`
  /// was rendered. Set by ServeTelemetry::tenant_row() and touch(); cleared
  /// by metrics_cut(). New rows start dirty.
  bool dirty = true;
  /// Cached {"kind":"tenant"} NDJSON line of the last cut (current while
  /// !dirty).
  std::string line;

 private:
  std::vector<std::uint64_t> accepted_ns_;
  std::size_t accepted_head_ = 0;
};

/// The service's metrics registry + journal + per-tenant rows.
class ServeTelemetry {
 private:
  // Declared before the public references: member init order is declaration
  // order, and the references below bind into this registry.
  bool lean_;
  obs::Registry registry_;
  obs::Journal journal_;
  std::vector<TenantTelemetry> rows_;  ///< by slot id, grow-only
  /// Rendered {"kind":"event"} lines by journal ring position, keyed by seq.
  struct EventLine {
    std::uint64_t seq = ~std::uint64_t{0};
    std::string text;
  };
  std::vector<EventLine> event_lines_;
  std::string cut_;  ///< the latest metrics_cut(), its buffer reused across cuts

  /// The meta line and the metric lines of a cut.
  void append_head(std::string& out, const core::MuxTotals& totals) const;

 public:
  explicit ServeTelemetry(bool lean);

  /// --lean: skip the per-step clock reads (ingest-latency stamps); the
  /// cheap counters stay live. The obs/overhead perf row pins the
  /// instrumented drain within 2% of this path.
  [[nodiscard]] bool lean() const noexcept { return lean_; }

  // Service-wide metrics (names catalogued in docs/OBSERVABILITY.md).
  obs::Counter& frames;           ///< serve.frames_total
  obs::Counter& reqs;             ///< serve.reqs_total
  obs::Counter& outcomes;         ///< serve.outcomes_total
  obs::Counter& busys;            ///< serve.busys_total
  obs::Counter& errors;           ///< serve.errors_total
  obs::Counter& tenants_opened;   ///< serve.tenants_opened_total
  obs::Counter& tenants_closed;   ///< serve.tenants_closed_total
  obs::Counter& snapshots;        ///< serve.snapshots_total
  obs::Counter& checkpoint_bytes; ///< serve.checkpoint_bytes_total
  obs::Counter& throttles;        ///< serve.throttles_total
  obs::Counter& retries;          ///< serve.retries_total
  obs::Counter& degraded_total;   ///< serve.degraded_total
  obs::Counter& idle_timeouts;    ///< serve.idle_timeouts_total
  obs::Gauge& tenants_open;       ///< serve.tenants_open
  obs::Gauge& inflight_hwm;       ///< serve.inflight_hwm
  obs::Gauge& degraded;           ///< serve.degraded
  obs::Histogram& ingest_latency; ///< serve.ingest_latency_ns
  /// serve.save_stall_ns: the pump's wall time per periodic save boundary.
  /// Null under --lean, which reads no clocks (the metric is not
  /// registered, so lean metrics dumps do not list it).
  obs::Histogram* save_stall = nullptr;

  [[nodiscard]] obs::Journal& journal() noexcept { return journal_; }
  [[nodiscard]] const obs::Journal& journal() const noexcept { return journal_; }

  /// Registry entries in registration order (metric_catalog reads these).
  [[nodiscard]] const std::vector<std::unique_ptr<obs::Registry::Entry>>& registry_entries()
      const noexcept {
    return registry_.entries();
  }

  /// The row for mux slot \p slot, created (and labelled) on first use,
  /// and marked dirty: callers get it to change it.
  TenantTelemetry& tenant_row(std::size_t slot, const std::string& tenant);
  /// Marks slot \p slot's row dirty after a change to the mux accounting
  /// it renders that no tenant_row() call sees (a graceful close).
  void touch(std::size_t slot);
  /// The row for slot \p slot, or nullptr if never created.
  [[nodiscard]] const TenantTelemetry* row(std::size_t slot) const noexcept;

  /// Frame-ready rows for slots 0..count-1 (count = mux.size(); slots with
  /// no serve-side activity get an all-zero row).
  [[nodiscard]] std::vector<TenantObsRow> rows(std::size_t count) const;

  /// Full metrics dump: every registry entry's current value plus the
  /// mux/journal-owned metrics (mux.queue_depth, mux.step_latency_ns,
  /// mux.steps_per_session, obs.journal_dropped_total,
  /// mux.active_sessions, mux.throttled_total). \p totals is the mux's
  /// totals(), taken by the caller so it can share the one scan.
  [[nodiscard]] io::Json::Array collect(const core::MuxTotals& totals) const;

  /// The --metrics-out NDJSON snapshot: one {"kind":"meta"} header line,
  /// then {"kind":"metric"} / {"kind":"tenant"} / {"kind":"event"} lines
  /// (docs/OBSERVABILITY.md documents the schema), every line rendered
  /// afresh. \p stats must be the mux's current snapshot().
  [[nodiscard]] std::string snapshot_ndjson(const core::SessionMultiplexer& mux,
                                            const std::vector<core::SessionStats>& stats) const;

  /// The same bytes as snapshot_ndjson(mux, mux.snapshot()), in
  /// O(rows dirtied since the previous cut + journal): clean tenant rows
  /// and already-rendered events are copied from the cache. \p totals is
  /// mux.totals(), taken by the caller (the one O(population) scan, shared
  /// with the snapshot save). The result lives in a buffer this object
  /// reuses: it stays valid until the next cut.
  [[nodiscard]] const std::string& metrics_cut(const core::SessionMultiplexer& mux,
                                               const core::MuxTotals& totals);
  /// Moves the latest cut's buffer out, so a background writer can own it
  /// without a copy. Hand it back with reuse_cut() once it is written: the
  /// next cut then reuses its capacity.
  [[nodiscard]] std::string take_cut() noexcept { return std::move(cut_); }
  void reuse_cut(std::string buffer) noexcept { cut_ = std::move(buffer); }
};

}  // namespace mobsrv::serve
