#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <limits>
#include <ostream>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "fault/injector.hpp"
#include "trace/checkpoint.hpp"

namespace mobsrv::serve {

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      mux_(pool_),
      telemetry_(options_.lean) {
  // --lean runs the hot loop clock-free; the counters stay live either way.
  mux_.set_timing_enabled(!options_.lean);
  // A writer killed mid-save leaves a stale ".tmp" beside its target. It is
  // never read (write_bytes_atomic truncates it on the next save), but
  // sweep it so a crashed run leaves nothing an operator could mistake for
  // a real save.
  for (const std::filesystem::path& target : {options_.snapshot_path, options_.metrics_path}) {
    if (target.empty()) continue;
    std::filesystem::path tmp = target;
    tmp += ".tmp";
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
  }
  if (!options_.snapshot_path.empty() || !options_.metrics_path.empty())
    writer_ = std::make_unique<par::ThreadPool>(1);
}

void Service::restore(const std::filesystem::path& path) {
  MOBSRV_CHECK_MSG(table_.size() == 0 && mux_.size() == 0,
                   "restore must run before any tenants are admitted");
  const ServiceSnapshot snapshot = read_snapshot(path);
  for (std::size_t i = 0; i < snapshot.tenants.size(); ++i)
    table_.admit_restored(snapshot.tenants[i], snapshot.records[i].cursor, mux_);
  mux_.restore(snapshot.records);
  // Sync the emission ledger with the restored accumulators: outcomes up to
  // the saved cursor were emitted by the previous process.
  for (const auto& tenant : table_.entries()) {
    const core::SessionProgress progress = mux_.progress(tenant->slot);
    tenant->emitted = progress.steps;
    tenant->emitted_move = progress.move_cost;
    tenant->emitted_service = progress.service_cost;
  }
  // Telemetry counters are process-local (they start fresh), but the open
  // set is real: rebuild the gauge and the per-slot rows.
  for (const auto& tenant : table_.entries()) {
    telemetry_.tenant_row(tenant->slot, tenant->spec.tenant);
    telemetry_.tenants_open.add(1);
  }
  telemetry_.journal().record(obs::EventType::kRestore, {}, path.string());
}

ExitReason Service::run(std::istream& in, std::ostream& out) {
  std::string line;
  for (;;) {
    if (options_.stop != nullptr && options_.stop->load(std::memory_order_relaxed))
      return finish(ExitReason::kSignal, out);
    // Input pause: nothing buffered means the client is waiting on us, so
    // consume the queues (and stream outcomes) before blocking on the next
    // line. During a burst, frames keep landing and consumption batches up.
    if (in.rdbuf()->in_avail() <= 0) {
      pump(out);
      out.flush();
    }
    if (!std::getline(in, line)) {
      // getline also fails when a signal interrupts the read mid-wait.
      if (options_.stop != nullptr && options_.stop->load(std::memory_order_relaxed))
        return finish(ExitReason::kSignal, out);
      return finish(ExitReason::kEof, out);
    }
    ++lines_;
    if (line.empty()) continue;
    if (options_.faults != nullptr) {
      try {
        options_.faults->hit(fault::kSiteServeRead);
      } catch (const std::exception& error) {
        // A `fail` here models a flaky transport read. The line was already
        // read whole, so the honest recovery is to report and keep it —
        // dropping it would deadlock a client waiting on its reply (crash
        // and delay outcomes keep their full effect).
        out << error_frame(lines_, error.what(), "", false) << '\n';
      }
    }
    telemetry_.frames.inc();
    handle_line(line, out);
    if (killed_) return ExitReason::kKill;
    if (shutdown_) return finish(ExitReason::kShutdown, out);
  }
}

void Service::handle_line(const std::string& line, std::ostream& out) {
  ClientFrame& frame = frame_;
  try {
    parse_client_frame(line, frame);
  } catch (const FrameError& error) {
    // The malformed-frame discipline: close the tenant the frame named (its
    // stream is now unreliable), never the process. Unattributable garbage
    // gets an error frame and nothing else.
    if (!error.tenant().empty() && table_.find(error.tenant()) != nullptr)
      fail_tenant(error.tenant(), error.what(), out);
    else
      out << error_frame(lines_, error.what(), error.tenant(), false) << '\n';
    return;
  }
  switch (frame.type) {
    case FrameType::kOpen:
      handle_open(std::move(frame.open), out);
      break;
    case FrameType::kReq:
      handle_req(frame, out);
      break;
    case FrameType::kClose:
      handle_close(frame.tenant, out);
      break;
    case FrameType::kStats:
      handle_stats(frame.tenant, out);
      break;
    case FrameType::kMetrics:
      handle_metrics(out);
      break;
    case FrameType::kCheckpoint:
      handle_checkpoint(out);
      break;
    case FrameType::kShutdown:
      shutdown_ = true;
      break;
    case FrameType::kKill:
      killed_ = true;
      break;
  }
}

void Service::handle_open(TenantSpec spec, std::ostream& out) {
  const std::string name = spec.tenant;
  // --default-rate fills in an admission rate for tenants that named none;
  // an explicit "rate" (at any value > 0) always wins.
  if (spec.rate == 0.0 && options_.default_rate > 0.0) spec.rate = options_.default_rate;
  try {
    Tenant& tenant = table_.admit(std::move(spec), mux_);
    tenant.last_activity = lines_;
    next_reap_line_ = std::min(next_reap_line_, lines_ + options_.idle_timeout);
    telemetry_.tenant_row(tenant.slot, name);
    telemetry_.tenants_opened.inc();
    telemetry_.tenants_open.add(1);
    telemetry_.journal().record(obs::EventType::kOpen, name, tenant.spec.algorithm);
    out << opened_frame(tenant.spec) << '\n';
  } catch (const std::exception& error) {
    // Admission failures (duplicate name, unknown algorithm, k > 1 on a
    // single-server strategy) reject the candidate; a tenant already open
    // under this name is untouched.
    out << error_frame(lines_, error.what(), name, false) << '\n';
  }
}

void Service::handle_req(const ClientFrame& frame, std::ostream& out) {
  Tenant* tenant = table_.find(frame.tenant);
  if (tenant == nullptr) {
    out << error_frame(lines_,
                       "unknown tenant \"" + frame.tenant + "\" (send an \"open\" frame first)",
                       frame.tenant, false)
        << '\n';
    return;
  }
  if (!frame.batch.empty() && frame.batch.requests.front().dim() != tenant->spec.dim) {
    fail_tenant(frame.tenant,
                "\"batch\" requests have " +
                    std::to_string(frame.batch.requests.front().dim()) +
                    " coordinates but tenant \"" + frame.tenant + "\" declared dim " +
                    std::to_string(tenant->spec.dim),
                out);
    return;
  }
  // Outside a pump round the emission ledger equals the session cursor, so
  // the queue depth needs no mux stats snapshot (which would allocate
  // position vectors on the req hot path).
  const std::size_t queued = tenant->workload->horizon() - tenant->emitted;
  tenant->last_activity = lines_;  // even a bounced req is a sign of life
  TenantTelemetry& row = telemetry_.tenant_row(tenant->slot, frame.tenant);
  if (queued >= options_.max_inflight) {
    // Bounded in-flight queue: the frame is NOT accepted (the client must
    // re-send it) — an explicit busy beats a silent drop. Consume now so
    // the retry lands. Counted in reqs AND busys, so
    // reqs == outcomes + busys holds at every quiescent point.
    telemetry_.reqs.inc();
    telemetry_.busys.inc();
    ++row.reqs;
    ++row.busys;
    telemetry_.journal().record(obs::EventType::kBusy, frame.tenant,
                                "queued " + std::to_string(queued) + " >= limit " +
                                    std::to_string(options_.max_inflight));
    out << busy_frame(frame.tenant, lines_, queued, options_.max_inflight) << '\n';
    pump(out);
    return;
  }
  tenant->workload->push_step(frame.batch);
  // Re-arm the (possibly parked) slot and bias dispatch toward the deepest
  // queues; enqueue the tenant for the pump's O(pending) sweep.
  mux_.poke(tenant->slot);
  mux_.set_priority(tenant->slot, static_cast<double>(queued + 1));
  if (!tenant->pending) {
    tenant->pending = true;
    pending_slots_.push_back(tenant->slot);
  }
  telemetry_.reqs.inc();
  ++row.reqs;
  if (queued + 1 > row.inflight_hwm) row.inflight_hwm = queued + 1;
  telemetry_.inflight_hwm.raise_to(static_cast<std::int64_t>(queued + 1));
  if (!telemetry_.lean()) row.push_accept(obs::now_ns());
}

void Service::handle_close(const std::string& name, std::ostream& out) {
  Tenant* tenant = table_.find(name);
  if (tenant == nullptr) {
    out << error_frame(lines_, "unknown tenant \"" + name + "\"", name, false) << '\n';
    return;
  }
  pump(out);  // consume its queue (outcomes still stream) before the final bill
  if (table_.find(name) == nullptr) return;  // the pump failed and closed it
  const std::size_t slot = tenant->slot;
  mux_.close(slot);
  telemetry_.touch(slot);
  telemetry_.tenants_closed.inc();
  telemetry_.tenants_open.add(-1);
  telemetry_.journal().record(obs::EventType::kClose, name);
  out << closed_frame(mux_.stats(slot)) << '\n';
  erase_tenant(name, slot);
}

void Service::handle_stats(const std::string& name, std::ostream& out) {
  if (name.empty()) {
    const std::vector<TenantObsRow> rows = telemetry_.rows(mux_.size());
    out << stats_frame(mux_.snapshot(), mux_.totals(), &rows, degraded_) << '\n';
    return;
  }
  Tenant* tenant = table_.find(name);
  if (tenant == nullptr) {
    out << error_frame(lines_, "unknown tenant \"" + name + "\"", name, false) << '\n';
    return;
  }
  tenant->last_activity = lines_;  // a polling client counts as alive
  const TenantTelemetry* row = telemetry_.row(tenant->slot);
  const std::vector<TenantObsRow> rows = {row != nullptr ? row->row() : TenantObsRow{}};
  out << stats_frame({mux_.stats(tenant->slot)}, mux_.totals(), &rows, degraded_) << '\n';
}

void Service::handle_metrics(std::ostream& out) {
  // Quiesce first: with every accepted step consumed, the frame's counters
  // satisfy reqs == outcomes + busys (barring error-closed tenants).
  pump(out);
  settle_writes(out, /*wait=*/true);
  const core::MuxTotals totals = mux_.totals();
  out << metrics_frame(telemetry_.collect(totals), mux_.snapshot(), telemetry_.rows(mux_.size()))
      << '\n';
  write_metrics(out, totals);
}

void Service::handle_checkpoint(std::ostream& out) {
  if (options_.snapshot_path.empty()) {
    out << error_frame(lines_,
                       "checkpointing is disabled (start mobsrv_serve with --snapshot PATH)", "",
                       false)
        << '\n';
    return;
  }
  pump(out);  // snapshots are taken at quiescent points only
  settle_writes(out, /*wait=*/true);  // frames keep save order
  save_snapshot(out, mux_.totals());
}

void Service::fail_tenant(const std::string& name, const std::string& message,
                          std::ostream& out) {
  pump(out);  // already-accepted steps still produce their outcomes
  Tenant* tenant = table_.find(name);
  if (tenant == nullptr) {
    // The pump itself failed the tenant and already reported it.
    out << error_frame(lines_, message, name, true) << '\n';
    return;
  }
  const std::size_t slot = tenant->slot;
  mux_.close(slot);
  note_tenant_error(slot, name, message);
  out << error_frame(lines_, message, name, true) << '\n';
  out << closed_frame(mux_.stats(slot)) << '\n';
  erase_tenant(name, slot);
}

void Service::erase_tenant(const std::string& name, std::size_t slot) {
  table_.erase(name);
  // Slots past the watermark were opened after the last save: a delta
  // never mentions them once they are gone again.
  if (slot < saved_watermark_) closed_since_save_.push_back(slot);
}

void Service::note_tenant_error(std::size_t slot, const std::string& name,
                                const std::string& message) {
  telemetry_.errors.inc();
  ++telemetry_.tenant_row(slot, name).errors;
  telemetry_.tenants_closed.inc();
  telemetry_.tenants_open.add(-1);
  telemetry_.journal().record(obs::EventType::kError, name, message);
}

void Service::pump(std::ostream& out) {
  if (!pending_slots_.empty()) {
    // Outcomes stream in slot order within a round — the same order the v1
    // whole-table sweep produced (slot ids are admission-ordered).
    std::sort(pending_slots_.begin(), pending_slots_.end());
    std::vector<core::SessionMultiplexer::SlotError> errors;
    while (!pending_slots_.empty()) {
      // One step per round keeps the per-step cost deltas exact: each live
      // session advances by at most one step between ledger snapshots.
      if (options_.faults != nullptr) {
        try {
          options_.faults->hit(fault::kSiteTenantStep);
        } catch (const std::exception& error) {
          // Observational only (see serve.read): a thrown `fail` on an
          // unconditional rule must not stall the round forever, so the
          // step still runs. Real per-session failures arrive via `errors`.
          out << error_frame(lines_, error.what(), "", false) << '\n';
        }
      }
      errors.clear();
      mux_.step_capturing(1, errors);

      std::size_t keep = 0;
      for (const std::size_t slot : pending_slots_) {
        Tenant* tenant = table_.find_slot(slot);
        if (tenant == nullptr) continue;  // error-closed mid-pump; drop
        const core::SessionProgress progress = mux_.progress(slot);
        if (progress.steps > tenant->emitted) {
          tenant->throttling = false;  // the scheduler let it advance again
          append_outcome(outcomes_, tenant->spec.tenant, progress.steps - 1,
                         progress.move_cost - tenant->emitted_move,
                         progress.service_cost - tenant->emitted_service, progress,
                         mux_.positions(slot), options_.lean);
          outcomes_ += '\n';
          tenant->emitted = progress.steps;
          tenant->emitted_move = progress.move_cost;
          tenant->emitted_service = progress.service_cost;
          tenant->last_activity = lines_;  // progress counts as life
          ++steps_since_snapshot_;
          ++steps_since_metrics_;
          telemetry_.outcomes.inc();
          TenantTelemetry& row = telemetry_.tenant_row(slot, tenant->spec.tenant);
          ++row.outcomes;
          // Steps restored from a snapshot carry no accept stamp (pop == 0).
          if (const std::uint64_t accepted = row.pop_accept(); accepted != 0) {
            const std::uint64_t latency = obs::now_ns() - accepted;
            row.ingest_latency.record(latency);
            telemetry_.ingest_latency.record(latency);
          }
        } else if (progress.throttled_rounds > tenant->throttled_seen && !tenant->throttling) {
          // Journal one event per throttle EPISODE (entry only), not per
          // starved round — the journal is for rare lifecycle events.
          tenant->throttling = true;
          telemetry_.throttles.inc();
          telemetry_.journal().record(
              obs::EventType::kThrottle, tenant->spec.tenant,
              "rate " + std::to_string(tenant->spec.rate) + " steps/round, queued " +
                  std::to_string(tenant->workload->horizon() - tenant->emitted));
        }
        // A throttled round needs no telemetry mark: it grants this slot no
        // step, so the slot stays pending, and the pump only ends after its
        // next outcome, whose tenant_row() call marks the row.
        tenant->throttled_seen = progress.throttled_rounds;
        if (tenant->workload->horizon() > tenant->emitted)
          pending_slots_[keep++] = slot;
        else
          tenant->pending = false;
      }
      pending_slots_.resize(keep);
      out.write(outcomes_.data(), static_cast<std::streamsize>(outcomes_.size()));
      outcomes_.clear();

      // Sessions that threw were closed by the mux (their slot alone);
      // report and drop them — every other tenant keeps streaming.
      for (const core::SessionMultiplexer::SlotError& error : errors) {
        Tenant* tenant = table_.find_slot(error.id);
        if (tenant == nullptr) continue;
        const std::string name = tenant->spec.tenant;
        note_tenant_error(error.id, name, error.message);
        out << error_frame(lines_, error.message, name, true) << '\n';
        out << closed_frame(mux_.stats(error.id)) << '\n';
        erase_tenant(name, error.id);
      }
    }
  }
  reap_idle(out);
  settle_writes(out, /*wait=*/false);
  const auto save_due = [this] {
    return !options_.snapshot_path.empty() && options_.checkpoint_every != 0 &&
           steps_since_snapshot_ >= options_.checkpoint_every;
  };
  const auto cut_due = [this] {
    return !options_.metrics_path.empty() && options_.metrics_every != 0 &&
           steps_since_metrics_ >= options_.metrics_every;
  };
  if (!save_due() && !cut_due()) return;
  // The save boundary: the pump does only the work that reads the mux, then
  // hands the writes to the writer and goes on. It waits only while the
  // previous boundary's job is still in flight (the slot is one deep).
  const std::uint64_t start = telemetry_.save_stall != nullptr ? obs::now_ns() : 0;
  settle_writes(out, /*wait=*/true);
  const bool save = save_due();
  const bool cut = cut_due();
  // One totals() scan serves the checkpointed frame and the cut's head:
  // saving changes nothing it reports.
  const core::MuxTotals totals = mux_.totals();
  if (save) {
    begin_snapshot(totals);
    // A healthy service books the save at hand-off, so this boundary's cut
    // shows it exactly as a synchronous save would. A degraded one books
    // it when it lands: a write that fails again must not end the episode.
    if (!degraded_) {
      book_snapshot(job_.segment.size());
      job_.booked = true;
    }
  }
  if (cut) begin_cut(totals);
  if (save || cut) submit_job();
  if (telemetry_.save_stall != nullptr) telemetry_.save_stall->record(obs::now_ns() - start);
}

void Service::reap_idle(std::ostream& out) {
  if (options_.idle_timeout == 0 || lines_ < next_reap_line_) return;
  // Collect first: closing mutates the table under iteration otherwise.
  std::vector<std::string> expired;
  std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
  for (const auto& tenant : table_.entries()) {
    const std::uint64_t deadline = tenant->last_activity + options_.idle_timeout;
    if (lines_ < deadline) {
      next = std::min(next, deadline);
      continue;
    }
    // A tenant with queued (possibly throttled) work is waiting on the
    // service, not idle — pausing a rate-limited workload is legitimate.
    // It may expire as soon as its queue drains: look again next pump.
    if (tenant->workload->horizon() > tenant->emitted) {
      next = lines_;
      continue;
    }
    expired.push_back(tenant->spec.tenant);
  }
  next_reap_line_ = next;
  for (const std::string& name : expired) {
    Tenant* tenant = table_.find(name);
    if (tenant == nullptr) continue;
    const std::size_t slot = tenant->slot;
    const std::string message = "idle timeout: no frames from \"" + name + "\" for " +
                                std::to_string(options_.idle_timeout) + "+ input lines";
    mux_.close(slot);
    telemetry_.idle_timeouts.inc();
    telemetry_.errors.inc();
    ++telemetry_.tenant_row(slot, name).errors;
    telemetry_.tenants_closed.inc();
    telemetry_.tenants_open.add(-1);
    telemetry_.journal().record(obs::EventType::kTimeout, name, message);
    out << error_frame(lines_, message, name, true) << '\n';
    out << closed_frame(mux_.stats(slot)) << '\n';
    erase_tenant(name, slot);
  }
}

void Service::save_snapshot(std::ostream& out, const core::MuxTotals& totals,
                            std::size_t first_attempt, std::string last_error) {
  if (options_.snapshot_path.empty()) return;
  for (std::size_t attempt = first_attempt; attempt <= options_.retry_limit; ++attempt) {
    if (attempt != 0) retry_backoff("snapshot save", attempt, last_error);
    begin_snapshot(totals);
    submit_job();
    const WriteJob done = finish_job();
    if (!done.snapshot_error) {
      land_snapshot(done, out);
      return;
    }
    // A failed save is loud but not fatal: the service keeps running on
    // the previous good snapshot. A failed APPEND may have left a torn
    // tail (the reader drops it), but appending after one would corrupt
    // the chain — every retry rewrites a fresh base atomically.
    have_base_ = false;
    last_error = *done.snapshot_error;
  }
  steps_since_snapshot_ += std::exchange(unsaved_steps_, 0);
  enter_degraded("snapshot save", last_error, out);
}

void Service::begin_snapshot(const core::MuxTotals& totals) {
  // A fresh base when this process has not written one yet (slot ids are
  // process-local, so appending to a previous process's chain would lie),
  // after a failed write, or when the delta chain has outgrown the
  // compaction threshold.
  const bool compacting =
      have_base_ && delta_bytes_ >= options_.compact_ratio * static_cast<double>(base_bytes_);
  const bool base = !have_base_ || compacting;
  if (compacting)
    telemetry_.journal().record(
        obs::EventType::kCompact, {},
        std::to_string(segments_) + " segments, " + std::to_string(delta_bytes_) +
            " delta bytes >= " + std::to_string(options_.compact_ratio) + "x base " +
            std::to_string(base_bytes_));
  job_.snapshot = true;
  job_.base = base;
  job_.segment =
      encode_snapshot_segment(base ? collect_base_segment() : collect_delta_segment(), base);
  const std::uint64_t bytes = job_.segment.size();
  if (base) {
    base_bytes_ = bytes;
    delta_bytes_ = 0;
    segments_ = 1;
    have_base_ = true;
  } else {
    delta_bytes_ += bytes;
    ++segments_;
  }
  mux_.mark_saved();
  saved_watermark_ = mux_.size();
  closed_since_save_.clear();
  unsaved_steps_ += std::exchange(steps_since_snapshot_, 0);
  job_.steps = totals.steps;
  job_.tenants = table_.size();
  job_.segments = segments_;
}

void Service::book_snapshot(std::uint64_t bytes) {
  telemetry_.snapshots.inc();
  telemetry_.checkpoint_bytes.inc(bytes);
  telemetry_.journal().record(obs::EventType::kCheckpoint, {}, options_.snapshot_path.string());
  clear_degraded();
}

void Service::land_snapshot(const WriteJob& job, std::ostream& out) {
  unsaved_steps_ = 0;
  const std::uint64_t bytes = job.segment.size();
  if (!job.booked) book_snapshot(bytes);
  out << checkpointed_frame(options_.snapshot_path.string(), job.tenants, job.steps,
                            job.base ? "base" : "delta", bytes, job.segments)
      << '\n';
}

void Service::begin_cut(const core::MuxTotals& totals) {
  (void)telemetry_.metrics_cut(mux_, totals);
  job_.metrics = true;
  job_.cut = telemetry_.take_cut();
  uncut_steps_ += std::exchange(steps_since_metrics_, 0);
}

void Service::submit_job() {
  MOBSRV_CHECK_MSG(!job_in_flight_, "the writer's job slot is one deep");
  job_in_flight_ = true;
  job_done_.store(false, std::memory_order_relaxed);
  writer_->submit([this] {
    run_job(job_);
    job_done_.store(true, std::memory_order_release);
  });
}

Service::WriteJob Service::finish_job() {
  writer_->wait_idle();
  job_in_flight_ = false;
  WriteJob done = std::exchange(job_, WriteJob{});
  if (done.metrics) telemetry_.reuse_cut(std::move(done.cut));
  return done;
}

void Service::run_job(WriteJob& job) const {
  if (job.snapshot) {
    SnapshotWriteOptions write_options;
    write_options.durable = options_.durable;
    write_options.faults = options_.faults;
    try {
      if (job.base)
        write_encoded_base(options_.snapshot_path, job.segment, write_options);
      else
        append_encoded_delta(options_.snapshot_path, job.segment, write_options);
    } catch (const std::exception& error) {
      job.snapshot_error = error.what();
    }
  }
  if (job.metrics) {
    trace::AtomicWriteOptions write_options;
    write_options.durable = options_.durable;
    write_options.faults = options_.faults;
    write_options.write_site = fault::kSiteMetricsWrite;
    try {
      trace::write_bytes_atomic(options_.metrics_path, job.cut, write_options);
    } catch (const std::exception& error) {
      // The previous good file survives: write_bytes_atomic never clobbers it.
      job.metrics_error = error.what();
    }
  }
}

void Service::settle_writes(std::ostream& out, bool wait) {
  if (!job_in_flight_ || (!wait && !job_done_.load(std::memory_order_acquire))) return;
  const WriteJob done = finish_job();
  // A failed write goes through the retry ladder here, at this quiescent
  // point and against the current state; the writer made its first attempt.
  if (done.snapshot) {
    if (!done.snapshot_error) {
      land_snapshot(done, out);
    } else {
      have_base_ = false;
      save_snapshot(out, mux_.totals(), 1, *done.snapshot_error);
    }
  }
  if (done.metrics) {
    if (!done.metrics_error) {
      uncut_steps_ = 0;
      clear_degraded();
    } else {
      write_metrics(out, mux_.totals(), 1, *done.metrics_error);
    }
  }
}

SnapshotSegment Service::collect_base_segment() const {
  SnapshotSegment segment;
  segment.opened.reserve(table_.size());
  for (const auto& tenant : table_.entries()) {
    segment.opened.push_back(tenant->spec);
    segment.opened_slots.push_back(tenant->slot);
    segment.record_slots.push_back(tenant->slot);
    segment.records.push_back(mux_.checkpoint_slot(tenant->slot));
  }
  return segment;
}

SnapshotSegment Service::collect_delta_segment() const {
  SnapshotSegment segment;
  // Slots are dense, never reused and admitted in slot order, so the
  // tenants opened since the save are exactly the table's tail from the
  // watermark on.
  for (const auto& tenant : table_.from_slot(saved_watermark_)) {
    segment.opened.push_back(tenant->spec);
    segment.opened_slots.push_back(tenant->slot);
  }
  segment.closed_slots.assign(closed_since_save_.begin(), closed_since_save_.end());
  std::sort(segment.closed_slots.begin(), segment.closed_slots.end());
  // Only the slots that stepped (or arrived) since mark_saved() are
  // re-serialised — the O(progress) heart of the incremental save.
  for (const std::size_t slot : mux_.dirty_slots()) {
    segment.record_slots.push_back(slot);
    segment.records.push_back(mux_.checkpoint_slot(slot));
  }
  return segment;
}

ExitReason Service::finish(ExitReason reason, std::ostream& out) {
  pump(out);
  settle_writes(out, /*wait=*/true);
  const core::MuxTotals totals = mux_.totals();
  save_snapshot(out, totals);
  const char* why = reason == ExitReason::kEof        ? "eof"
                    : reason == ExitReason::kShutdown ? "shutdown"
                                                      : "signal";
  telemetry_.journal().record(obs::EventType::kDrain, {}, why);
  write_metrics(out, totals);
  out << bye_frame(why, totals) << '\n';
  out.flush();
  return reason;
}

void Service::write_metrics(std::ostream& out, const core::MuxTotals& totals,
                            std::size_t first_attempt, std::string last_error) {
  if (options_.metrics_path.empty()) return;
  for (std::size_t attempt = first_attempt; attempt <= options_.retry_limit; ++attempt) {
    if (attempt != 0) retry_backoff("metrics snapshot", attempt, last_error);
    begin_cut(totals);
    submit_job();
    const WriteJob done = finish_job();
    if (!done.metrics_error) {
      uncut_steps_ = 0;
      clear_degraded();
      return;
    }
    // Same discipline as snapshot saves: loud but never fatal.
    last_error = *done.metrics_error;
  }
  steps_since_metrics_ += std::exchange(uncut_steps_, 0);
  telemetry_.journal().record(obs::EventType::kError, {},
                              "metrics snapshot failed: " + last_error);
  enter_degraded("metrics snapshot", last_error, out);
}

void Service::retry_backoff(const char* what, std::size_t attempt, const std::string& error) {
  telemetry_.retries.inc();
  telemetry_.journal().record(obs::EventType::kRetry, {},
                              std::string(what) + " retry " + std::to_string(attempt) + "/" +
                                  std::to_string(options_.retry_limit) + ": " + error);
  // Exponential backoff with seeded jitter: base << (attempt-1), scaled by
  // [0.5, 1.5) so a fleet of services never retries in lockstep.
  const double jitter = 0.5 + retry_rng_.uniform();
  const double ms =
      static_cast<double>(options_.retry_base_ms << (attempt - 1)) * jitter;
  if (ms > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

void Service::enter_degraded(const char* what, const std::string& error, std::ostream& out) {
  out << error_frame(0, std::string(what) + " failed: " + error, "", false) << '\n';
  if (degraded_) return;  // one episode, not one per failed save
  degraded_ = true;
  telemetry_.degraded.set(1);
  telemetry_.degraded_total.inc();
  telemetry_.journal().record(obs::EventType::kDegraded, {},
                              std::string("enter: ") + what + " failed: " + error);
}

void Service::clear_degraded() {
  if (!degraded_) return;
  degraded_ = false;
  telemetry_.degraded.set(0);
  telemetry_.journal().record(obs::EventType::kDegraded, {}, "recovered");
}

}  // namespace mobsrv::serve
