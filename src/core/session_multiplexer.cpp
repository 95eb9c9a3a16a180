#include "core/session_multiplexer.hpp"

#include <algorithm>
#include <limits>

#include "algorithms/registry.hpp"
#include "parallel/parallel_for.hpp"

namespace mobsrv::core {

namespace {

/// Sentinel saved-cursor: a slot that was never checkpointed is dirty.
constexpr std::size_t kNeverSaved = std::numeric_limits<std::size_t>::max();

/// The start layout a spec describes: explicit positions when given,
/// otherwise fleet_size copies of the workload's start.
std::vector<sim::Point> spec_starts(const SessionSpec& spec) {
  MOBSRV_CHECK_MSG(spec.fleet_size >= 1, "session needs at least one server");
  if (!spec.starts.empty()) {
    MOBSRV_CHECK_MSG(spec.starts.size() == spec.fleet_size,
                     "spec.starts must match spec.fleet_size");
    for (const sim::Point& start : spec.starts)
      MOBSRV_CHECK_MSG(start.dim() == spec.workload->dim(),
                       "spec.starts dimension does not match the workload");
    return spec.starts;
  }
  return std::vector<sim::Point>(spec.fleet_size, spec.workload->start());
}

sim::RunOptions spec_options(const SessionSpec& spec) {
  sim::RunOptions options;
  options.speed_factor = spec.speed_factor;
  options.policy = spec.policy;
  options.record_positions = false;  // O(1) memory per session
  options.record_trace = false;
  return options;
}

}  // namespace

/// All state of one live session. Owned via unique_ptr so slot addresses are
/// stable (Session keeps a pointer to the algorithm; workers touch only
/// their own slots). The engine half lives behind its own pointer so
/// close() can release it while the slot keeps its identity and cached
/// accounting.
struct SessionMultiplexer::Slot {
  /// The releasable half: algorithm + session (session pins a pointer to
  /// the algorithm, so they live and die together).
  struct Engine {
    Engine(const SessionSpec& spec, sim::FleetAlgorithmPtr algorithm_in,
           const sim::RunOptions& options)
        : algorithm(std::move(algorithm_in)),
          session(spec_starts(spec), spec.workload->params(), *algorithm, options) {}

    /// Restore form: resumes the session from a checkpoint record.
    Engine(sim::FleetAlgorithmPtr algorithm_in, const SessionCheckpointRecord& record)
        : algorithm(std::move(algorithm_in)), session(record.engine, *algorithm) {}

    sim::FleetAlgorithmPtr algorithm;
    sim::Session session;
  };

  Slot(SessionSpec spec_in, sim::FleetAlgorithmPtr algorithm_in, const sim::RunOptions& options)
      : spec(std::move(spec_in)),
        engine(std::make_unique<Engine>(spec, std::move(algorithm_in), options)) {}

  SessionSpec spec;
  std::unique_ptr<Engine> engine;  ///< null once close()d
  std::size_t cursor = 0;          ///< next workload step to reveal
  std::size_t saved_cursor = kNeverSaved;  ///< cursor at the last mark_saved()
  SessionStats final_stats;        ///< cached accounting, set by close()
  std::string error;               ///< set by a guarded advance on throw
  // --- scheduler state (touched only between rounds or by this slot's
  // worker; never by another slot's) ---
  bool ready = false;              ///< armed on the ready list
  std::size_t take = 0;            ///< steps granted for the current round
  double tokens = 0.0;             ///< rate-limit bucket (meaningful iff limited())
  double burst = 0.0;              ///< normalised bucket cap (>= 1 iff limited())
  std::size_t throttled_rounds = 0;

  [[nodiscard]] bool open() const noexcept { return engine != nullptr; }

  [[nodiscard]] bool limited() const noexcept { return spec.rate.steps_per_round > 0.0; }

  [[nodiscard]] bool done() const noexcept {
    return !open() || cursor >= spec.workload->horizon();
  }

  /// Pending workload steps right now.
  [[nodiscard]] std::size_t pending() const noexcept {
    if (!open()) return 0;
    const std::size_t horizon = spec.workload->horizon();
    return horizon > cursor ? horizon - cursor : 0;
  }

  void advance(std::size_t max_steps) {
    const std::size_t horizon = spec.workload->horizon();
    for (std::size_t k = 0; k < max_steps && cursor < horizon; ++k, ++cursor)
      engine->session.push(spec.workload->step(cursor));
  }

  /// advance() under a try/catch: a throwing session records its error in
  /// the slot (collected and closed after the join) instead of unwinding
  /// through the pool.
  void advance_guarded(std::size_t max_steps) {
    try {
      advance(max_steps);
    } catch (const std::exception& failure) {
      error = failure.what();
    }
  }

  /// Live accounting snapshot (requires an open engine).
  [[nodiscard]] SessionStats live_stats() const {
    SessionStats stats;
    stats.tenant = spec.tenant;
    stats.algorithm = spec.algorithm;
    stats.steps = cursor;
    stats.horizon = spec.workload->horizon();
    stats.done = done();
    stats.fleet_size = engine->session.fleet_size();
    stats.total_cost = engine->session.total_cost();
    stats.move_cost = engine->session.move_cost();
    stats.service_cost = engine->session.service_cost();
    stats.throttled_rounds = throttled_rounds;
    stats.position = engine->session.position();
    stats.positions = engine->session.fleet();
    stats.per_server_move_cost.reserve(engine->session.fleet_size());
    for (std::size_t i = 0; i < engine->session.fleet_size(); ++i)
      stats.per_server_move_cost.push_back(engine->session.server_move_cost(i));
    return stats;
  }

  /// Caches the final accounting and releases the engine.
  void close() {
    if (!open()) return;
    final_stats = live_stats();
    final_stats.closed = true;
    engine.reset();
  }

  /// Serialises this slot's resumable state (requires an open engine).
  [[nodiscard]] SessionCheckpointRecord checkpoint_record() const {
    SessionCheckpointRecord record;
    record.tenant = spec.tenant;
    record.algorithm = spec.algorithm;
    record.algo_seed = spec.algo_seed;
    record.cursor = cursor;
    record.horizon = spec.workload->horizon();
    record.engine = engine->session.save();
    return record;
  }
};

SessionMultiplexer::SessionMultiplexer(par::ThreadPool& pool, std::size_t grain)
    : pool_(pool), grain_(grain == 0 ? 1 : grain) {}

SessionMultiplexer::~SessionMultiplexer() = default;

std::size_t SessionMultiplexer::add(SessionSpec spec) {
  MOBSRV_CHECK_MSG(spec.workload != nullptr, "session needs a workload");
  MOBSRV_CHECK_MSG(spec.rate.steps_per_round >= 0.0, "rate limit cannot be negative");
  if (spec.rate.steps_per_round > 0.0) {
    MOBSRV_CHECK_MSG(spec.rate.burst == 0.0 || spec.rate.burst >= 1.0,
                     "rate-limit burst must be >= 1 token (or 0 for the default)");
  } else {
    MOBSRV_CHECK_MSG(spec.rate.burst == 0.0, "rate-limit burst needs steps_per_round > 0");
  }
  sim::FleetAlgorithmPtr algorithm = alg::make_fleet_algorithm(spec.algorithm, spec.algo_seed);
  const sim::RunOptions options = spec_options(spec);
  if (spec.priority != 0.0) has_priority_ = true;
  slots_.push_back(std::make_unique<Slot>(std::move(spec), std::move(algorithm), options));
  Slot& slot = *slots_.back();
  if (slot.limited())
    slot.burst = slot.spec.rate.burst > 0.0 ? slot.spec.rate.burst
                                            : std::max(1.0, slot.spec.rate.steps_per_round);
  arm(slots_.size() - 1);
  return slots_.size() - 1;
}

std::size_t SessionMultiplexer::size() const noexcept { return slots_.size(); }

std::size_t SessionMultiplexer::live() const noexcept { return live_; }

void SessionMultiplexer::arm(std::size_t id) {
  Slot& slot = *slots_[id];
  if (slot.ready || !slot.open() || slot.pending() == 0) return;
  // Re-armed from parked: the bucket refilled while the slot sat idle.
  if (slot.limited()) slot.tokens = slot.burst;
  slot.ready = true;
  ready_ids_.push_back(id);
  ++live_;
}

void SessionMultiplexer::rescan() {
  for (std::size_t i = 0; i < slots_.size(); ++i) arm(i);
}

void SessionMultiplexer::poke(std::size_t id) {
  MOBSRV_CHECK(id < slots_.size());
  arm(id);
}

void SessionMultiplexer::set_priority(std::size_t id, double priority) {
  MOBSRV_CHECK(id < slots_.size());
  slots_[id]->spec.priority = priority;
  if (priority != 0.0) has_priority_ = true;
}

void SessionMultiplexer::prepare_round(std::size_t max_steps) {
  // Compact entries that went stale since they were armed (closed or
  // individually drained slots cleared their flag in place).
  std::size_t keep = 0;
  for (const std::size_t id : ready_ids_) {
    Slot& slot = *slots_[id];
    if (!slot.ready) continue;
    if (slot.pending() == 0) {
      slot.ready = false;
      continue;
    }
    ready_ids_[keep++] = id;
  }
  ready_ids_.resize(keep);
  live_ = keep;
  // Priority orders dispatch only; the id tiebreak keeps the order total,
  // so the round schedule is deterministic. Skipped entirely while every
  // priority is the default 0.
  if (has_priority_) {
    std::sort(ready_ids_.begin(), ready_ids_.end(), [this](std::size_t a, std::size_t b) {
      const double pa = slots_[a]->spec.priority;
      const double pb = slots_[b]->spec.priority;
      if (pa != pb) return pa > pb;
      return a < b;
    });
  }
  // Token math is single-threaded and pre-round: workers only ever read
  // their own slot's grant.
  for (const std::size_t id : ready_ids_) {
    Slot& slot = *slots_[id];
    const std::size_t desired = std::min(max_steps, slot.pending());
    if (slot.limited()) {
      const auto whole = static_cast<std::size_t>(slot.tokens);  // floor, tokens >= 0
      slot.take = std::min(desired, whole);
      if (slot.take < desired) {
        ++slot.throttled_rounds;
        ++throttled_total_;
      }
    } else {
      slot.take = desired;
    }
  }
}

std::size_t SessionMultiplexer::finish_round() {
  std::size_t keep = 0;
  for (const std::size_t id : ready_ids_) {
    Slot& slot = *slots_[id];
    if (slot.limited()) {
      slot.tokens -= static_cast<double>(slot.take);
      slot.tokens = std::min(slot.burst, slot.tokens + slot.spec.rate.steps_per_round);
    }
    if (slot.open() && slot.pending() > 0) {
      ready_ids_[keep++] = id;  // still hungry (long workload or throttled)
    } else {
      slot.ready = false;  // park: consumed its workload (or was closed)
    }
  }
  ready_ids_.resize(keep);
  live_ = keep;
  return live_;
}

std::size_t SessionMultiplexer::step(std::size_t max_steps) {
  MOBSRV_CHECK(max_steps >= 1);
  // Growth fallback: an idle mux rescans so workloads that grew without a
  // poke() are still noticed (the historical contract).
  if (ready_ids_.empty()) rescan();
  prepare_round(max_steps);
  if (ready_ids_.empty()) return 0;
  const std::uint64_t begin = timing_ ? obs::now_ns() : 0;
  par::parallel_for(pool_, 0, ready_ids_.size(), grain_, [&](std::size_t i) {
    Slot& slot = *slots_[ready_ids_[i]];
    slot.advance(slot.take);
  });
  // Timing + bookkeeping after the join (workers never touch shared state).
  if (timing_) step_latency_.record(obs::now_ns() - begin);
  return finish_round();
}

std::size_t SessionMultiplexer::step_capturing(std::size_t max_steps,
                                               std::vector<SlotError>& errors) {
  MOBSRV_CHECK(max_steps >= 1);
  if (ready_ids_.empty()) rescan();
  prepare_round(max_steps);
  if (ready_ids_.empty()) return 0;
  const std::uint64_t begin = timing_ ? obs::now_ns() : 0;
  par::parallel_for(pool_, 0, ready_ids_.size(), grain_, [&](std::size_t i) {
    Slot& slot = *slots_[ready_ids_[i]];
    slot.advance_guarded(slot.take);
  });
  if (timing_) step_latency_.record(obs::now_ns() - begin);
  // Only slots this round touched can have failed.
  for (const std::size_t id : ready_ids_) {
    Slot& slot = *slots_[id];
    if (slot.error.empty()) continue;
    errors.push_back({id, std::move(slot.error)});
    slot.error.clear();
    close_slot(slot);
  }
  return finish_round();
}

void SessionMultiplexer::drain() {
  rescan();  // every pending slot drains, armed or parked
  // Compact without the token math: drain ignores rate limits, so no
  // throttle is counted and no bucket is spent here.
  std::size_t keep = 0;
  for (const std::size_t id : ready_ids_) {
    Slot& slot = *slots_[id];
    if (!slot.ready) continue;
    if (slot.pending() == 0) {
      slot.ready = false;
      continue;
    }
    ready_ids_[keep++] = id;
  }
  ready_ids_.resize(keep);
  live_ = keep;
  if (ready_ids_.empty()) return;
  const std::uint64_t begin = timing_ ? obs::now_ns() : 0;
  par::parallel_for(pool_, 0, ready_ids_.size(), grain_, [&](std::size_t i) {
    Slot& slot = *slots_[ready_ids_[i]];
    slot.advance(slot.pending());  // rate limits do not apply to drain
  });
  if (timing_) step_latency_.record(obs::now_ns() - begin);
  for (const std::size_t id : ready_ids_) slots_[id]->ready = false;
  ready_ids_.clear();
  live_ = 0;
}

void SessionMultiplexer::drain(std::size_t id) {
  MOBSRV_CHECK(id < slots_.size());
  Slot& slot = *slots_[id];
  if (slot.done()) return;
  slot.advance(slot.pending());
  if (slot.ready) {
    // The stale ready entry is dropped by the next round's compaction.
    slot.ready = false;
    if (live_ > 0) --live_;
  }
}

void SessionMultiplexer::close_slot(Slot& slot) {
  if (!slot.open()) return;
  slot.close();
  // Carry the closed session's activity into the aggregate distribution:
  // totals().steps_per_session keeps true percentiles across tenant churn
  // instead of only seeing whoever happens to be open right now.
  closed_steps_.record(slot.cursor);
}

void SessionMultiplexer::close(std::size_t id) {
  MOBSRV_CHECK(id < slots_.size());
  Slot& slot = *slots_[id];
  if (!slot.open()) return;
  close_slot(slot);
  if (slot.ready) {
    slot.ready = false;
    if (live_ > 0) --live_;
  }
}

bool SessionMultiplexer::closed(std::size_t id) const {
  MOBSRV_CHECK(id < slots_.size());
  return !slots_[id]->open();
}

SessionStats SessionMultiplexer::stats(std::size_t id) const {
  MOBSRV_CHECK(id < slots_.size());
  const Slot& slot = *slots_[id];
  return slot.open() ? slot.live_stats() : slot.final_stats;
}

SessionProgress SessionMultiplexer::progress(std::size_t id) const {
  MOBSRV_CHECK(id < slots_.size());
  const Slot& slot = *slots_[id];
  if (!slot.open()) {
    const SessionStats& done = slot.final_stats;
    return {done.steps, done.move_cost, done.service_cost, done.total_cost,
            done.throttled_rounds};
  }
  const sim::Session& session = slot.engine->session;
  return {slot.cursor, session.move_cost(), session.service_cost(), session.total_cost(),
          slot.throttled_rounds};
}

std::span<const sim::Point> SessionMultiplexer::positions(std::size_t id) const {
  MOBSRV_CHECK(id < slots_.size());
  const Slot& slot = *slots_[id];
  return slot.open() ? std::span<const sim::Point>(slot.engine->session.fleet())
                     : std::span<const sim::Point>(slot.final_stats.positions);
}

std::vector<SessionStats> SessionMultiplexer::snapshot() const {
  std::vector<SessionStats> all;
  all.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) all.push_back(stats(i));
  return all;
}

MuxTotals SessionMultiplexer::totals() const {
  MuxTotals totals;
  totals.sessions = slots_.size();
  totals.active = live_;
  totals.throttled = throttled_total_;
  // Closed sessions' step counts were folded in at close() time; open
  // cursors are merged on top here, so the percentiles cover every session
  // this multiplexer ever ran.
  obs::Histogram per_session = closed_steps_;
  for (const auto& slot : slots_) {
    if (slot->open()) {
      totals.steps += slot->cursor;
      totals.total_cost += slot->engine->session.total_cost();
      totals.move_cost += slot->engine->session.move_cost();
      totals.service_cost += slot->engine->session.service_cost();
      const std::size_t pending = slot->pending();
      if (pending > 0) {
        totals.queue_depth += pending;
        ++totals.live;  // true pending count, parked-but-grown included
      }
      per_session.record(slot->cursor);
    } else {
      ++totals.closed;
      totals.steps += slot->final_stats.steps;
      totals.total_cost += slot->final_stats.total_cost;
      totals.move_cost += slot->final_stats.move_cost;
      totals.service_cost += slot->final_stats.service_cost;
    }
  }
  totals.step_latency = step_latency_.summary();
  totals.steps_per_session = per_session.summary();
  return totals;
}

std::vector<SessionCheckpointRecord> SessionMultiplexer::checkpoint() const {
  std::vector<SessionCheckpointRecord> records;
  records.reserve(slots_.size());
  for (const auto& slot : slots_) {
    if (!slot->open()) continue;
    records.push_back(slot->checkpoint_record());
  }
  return records;
}

SessionCheckpointRecord SessionMultiplexer::checkpoint_slot(std::size_t id) const {
  MOBSRV_CHECK(id < slots_.size());
  MOBSRV_CHECK_MSG(slots_[id]->open(), "cannot checkpoint a closed slot");
  return slots_[id]->checkpoint_record();
}

std::vector<std::size_t> SessionMultiplexer::dirty_slots() const {
  std::vector<std::size_t> dirty;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = *slots_[i];
    if (slot.open() && slot.cursor != slot.saved_cursor) dirty.push_back(i);
  }
  return dirty;
}

void SessionMultiplexer::mark_saved() {
  for (const auto& slot : slots_)
    if (slot->open()) slot->saved_cursor = slot->cursor;
}

void SessionMultiplexer::restore(const std::vector<SessionCheckpointRecord>& records) {
  std::vector<std::size_t> open_ids;
  open_ids.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i]->open()) open_ids.push_back(i);
  MOBSRV_CHECK_MSG(records.size() == open_ids.size(),
                   "checkpoint holds " + std::to_string(records.size()) +
                       " sessions but this multiplexer has " + std::to_string(open_ids.size()) +
                       " open");
  for (std::size_t r = 0; r < open_ids.size(); ++r) {
    const SessionCheckpointRecord& record = records[r];
    const SessionSpec& spec = slots_[open_ids[r]]->spec;
    const std::string where = "checkpoint session " + std::to_string(r);
    MOBSRV_CHECK_MSG(record.algorithm == spec.algorithm,
                     where + " was saved by \"" + record.algorithm + "\" but the slot runs \"" +
                         spec.algorithm + "\"");
    MOBSRV_CHECK_MSG(record.algo_seed == spec.algo_seed, where + " algo seed mismatch");
    MOBSRV_CHECK_MSG(record.tenant == spec.tenant, where + " tenant mismatch");
    MOBSRV_CHECK_MSG(record.horizon == spec.workload->horizon(),
                     where + " workload horizon mismatch (different workload supplied?)");
    MOBSRV_CHECK_MSG(record.cursor <= record.horizon, where + " cursor beyond horizon");
    MOBSRV_CHECK_MSG(record.cursor == record.engine.step,
                     where + " cursor disagrees with engine step count");
    MOBSRV_CHECK_MSG(record.engine.servers.size() == spec.fleet_size,
                     where + " fleet size mismatch");
    MOBSRV_CHECK_MSG(record.engine.servers.front().dim() == spec.workload->dim(),
                     where + " server dimension disagrees with the supplied workload");
    MOBSRV_CHECK_MSG(record.engine.speed_factor == spec.speed_factor &&
                         record.engine.policy == spec.policy,
                     where + " engine options disagree with the slot's spec");
    const sim::ModelParams& saved = record.engine.params;
    const sim::ModelParams& live = spec.workload->params();
    MOBSRV_CHECK_MSG(saved.move_cost_weight == live.move_cost_weight &&
                         saved.max_step == live.max_step && saved.order == live.order,
                     where + " model params disagree with the supplied workload "
                             "(different workload supplied?)");
  }
  // All records verified; rebuild engines on the side and swap in only after
  // every one constructed, so a restore that fails halfway (e.g. a corrupt
  // AlgorithmState rejected by restore_state) leaves this multiplexer
  // exactly as it was. Closed slots are untouched — they keep their cached
  // accounting.
  std::vector<std::unique_ptr<Slot::Engine>> rebuilt;
  rebuilt.reserve(open_ids.size());
  for (std::size_t r = 0; r < open_ids.size(); ++r) {
    const SessionSpec& spec = slots_[open_ids[r]]->spec;
    sim::FleetAlgorithmPtr algorithm = alg::make_fleet_algorithm(spec.algorithm, spec.algo_seed);
    rebuilt.push_back(std::make_unique<Slot::Engine>(std::move(algorithm), records[r]));
  }
  for (std::size_t r = 0; r < open_ids.size(); ++r) {
    Slot& slot = *slots_[open_ids[r]];
    slot.engine = std::move(rebuilt[r]);
    slot.cursor = records[r].cursor;
  }
  // Rebuild the ready list from the restored cursors.
  for (const auto& slot : slots_) slot->ready = false;
  ready_ids_.clear();
  live_ = 0;
  rescan();
}

}  // namespace mobsrv::core
