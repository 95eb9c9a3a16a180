/// \file session_multiplexer.hpp
/// Concurrent driver for up to millions of live simulation sessions.
///
/// Production framing (ROADMAP north star): every tenant/workload is one
/// sim::Session — a fleet of k >= 1 servers — streaming its own request
/// sequence; the multiplexer shards the live sessions across a
/// parallel::ThreadPool and advances them in rounds. The API is
/// drain/step/snapshot/checkpoint:
///   * step(k)     — advance every READY session by up to k steps;
///   * step_capturing(k, errors) — same, but a throwing session closes only
///     its own slot (the service front-end's loud-error discipline);
///   * drain() / drain(id) — run every (or one) session to the end of its
///     workload;
///   * close(id)   — release one session, caching its final accounting;
///   * snapshot()  — per-session accounting (costs, progress, positions);
///   * checkpoint()/restore() — capture/resume every session's full engine
///     + algorithm state so a long-running service survives restarts
///     bit-identically (trace/checkpoint.hpp serialises to disk).
///
/// ## Active-set scheduling
///
/// Rounds cost O(active), not O(sessions): the multiplexer keeps an
/// intrusive ready-list of slots with pending workload steps. A slot is
/// armed when it is added with work, re-armed by poke() or by the
/// empty-ready rescan (below), and parked again the moment it has consumed
/// its whole workload. step()/step_capturing() touch ready slots only —
/// with a million parked sessions and a thousand hot ones, a round costs a
/// thousand advances, not a million done() checks.
///
/// Workloads may grow in place between rounds (serve/ appends arriving
/// request batches to each tenant's Instance). Growth is detected two ways:
///   * poke(id) — the streaming front-end calls this after appending a
///     batch; O(1), idempotent, safe on parked/done/closed slots;
///   * the empty-ready rescan — a step()/drain() call that finds the ready
///     list empty rescans every slot and arms whatever grew. This keeps the
///     historical "step() re-evaluates done-ness on entry" contract for
///     callers that never poke, at O(sessions) only when the mux was idle.
/// A parked slot that grew while OTHER slots were still ready is not seen
/// until the ready set drains (or it is poked) — live()/step() report the
/// armed set, and totals() reports the true pending count.
///
/// ## Per-tenant rate limits
///
/// SessionSpec::rate is a token bucket: a limited slot accumulates
/// steps_per_round tokens each round (capped at burst) and may only advance
/// while it holds >= 1 whole token. A round that grants a limited slot
/// fewer steps than it wanted is a THROTTLED round: counted per slot
/// (SessionStats::throttled_rounds) and mux-wide (MuxTotals::throttled).
/// Throttled slots stay on the ready list — they park only when their
/// workload is consumed. drain() ignores rate limits (it is the terminal
/// "finish everything" operation); a slot re-armed from parked starts with
/// a full bucket. Token state is scheduling-only: it never touches engine
/// state, so results stay bit-identical for any thread count.
///
/// ## Priorities
///
/// SessionSpec::priority (mutable via set_priority) orders work dispatch
/// within a round: higher-priority slots are placed first in the round's
/// worker schedule, so the serve layer can favour tenants with deep queues.
/// Every ready slot still advances every round — priority affects dispatch
/// order only, and results are bit-identical regardless of priorities.
///
/// ## Dirty-slot tracking
///
/// Every slot remembers the cursor of its last checkpoint (mark_saved());
/// dirty_slots() lists the open slots that stepped since. checkpoint_slot()
/// serialises one slot, so periodic saves cost O(progress since last save)
/// instead of O(sessions) — the serve layer's incremental MSRVSS2 segments
/// are built on these three calls.
///
/// Determinism: each session's state lives in its own slot and is touched
/// only by whichever worker drew that slot; no cross-session state exists,
/// and every algorithm is seeded explicitly. Results are therefore
/// bit-identical for ANY thread count, including 1 — covered by tests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/session.hpp"

namespace mobsrv::core {

/// Token-bucket rate limit for one session. Zero steps_per_round means
/// unlimited (the default); a limited session accumulates steps_per_round
/// tokens per scheduler round, holds at most burst, and spends one token
/// per workload step. Fractional rates are meaningful: 0.5 is one step
/// every other round. burst == 0 defaults to max(1, steps_per_round);
/// an explicit burst must be >= 1 (a bucket that can never hold a whole
/// token would starve the session forever).
struct RateLimit {
  double steps_per_round = 0.0;  ///< tokens gained per round; 0 = unlimited
  double burst = 0.0;            ///< token cap; 0 = max(1, steps_per_round)
};

/// One tenant's workload: which algorithm serves which request sequence
/// under which engine options. The instance is shared (read-only) so a
/// corpus replayed by k algorithms stores its coordinates once.
struct SessionSpec {
  std::shared_ptr<const sim::Instance> workload;  ///< never null
  std::string algorithm;                          ///< alg::make_fleet_algorithm name
  std::uint64_t algo_seed = 0;
  double speed_factor = 1.0;
  sim::SpeedLimitPolicy policy = sim::SpeedLimitPolicy::kThrow;
  std::string tenant;  ///< free-form accounting label (may be empty)
  /// Fleet size; single-server names require 1, fleet-native strategies
  /// accept any k >= 1.
  std::size_t fleet_size = 1;
  /// Explicit start layout (size fleet_size, dimensions matching the
  /// workload). Empty = every server starts at workload->start(); use
  /// ext::spread_starts for a circular layout.
  std::vector<sim::Point> starts;
  /// Scheduler token bucket (see RateLimit). Enforced by step()/
  /// step_capturing(); ignored by drain().
  RateLimit rate;
  /// Dispatch priority within a round (higher first; ties by slot id).
  /// Scheduling-only — results are identical for any priority assignment.
  double priority = 0.0;
};

/// Per-session accounting snapshot.
struct SessionStats {
  std::string tenant;
  std::string algorithm;
  std::size_t steps = 0;      ///< steps consumed so far
  std::size_t horizon = 0;    ///< workload length
  bool done = false;          ///< steps == horizon
  bool closed = false;        ///< slot was close()d (final accounting cached)
  std::size_t fleet_size = 1;
  double total_cost = 0.0;
  double move_cost = 0.0;
  double service_cost = 0.0;
  /// Rounds in which the rate limiter granted fewer steps than the session
  /// wanted (0 forever on unlimited sessions).
  std::size_t throttled_rounds = 0;
  sim::Point position;                       ///< first server's position
  std::vector<sim::Point> positions;         ///< every server's position
  std::vector<double> per_server_move_cost;  ///< move split by server
};

/// The counters and cost accumulators of SessionStats, without its names
/// and position vectors: what the serve pump reads for every tenant every
/// round, so reading it never allocates.
struct SessionProgress {
  std::size_t steps = 0;
  double move_cost = 0.0;
  double service_cost = 0.0;
  double total_cost = 0.0;
  std::size_t throttled_rounds = 0;
};

/// Aggregate accounting over all sessions.
struct MuxTotals {
  std::size_t sessions = 0;
  /// Open sessions with pending workload steps right now (horizon > cursor,
  /// re-evaluated on every totals() call — unlike live(), this sees parked
  /// slots whose workloads grew without a poke()).
  std::size_t live = 0;
  /// Sessions armed on the ready list — the slots the next round will
  /// actually touch. active <= live; the difference is parked-but-grown
  /// slots awaiting a poke()/rescan.
  std::size_t active = 0;
  std::size_t closed = 0;  ///< slots released via close()
  std::size_t steps = 0;   ///< total steps consumed across sessions
  /// Cumulative throttled session-rounds (see SessionStats::throttled_rounds)
  /// summed over the multiplexer's lifetime, closed slots included.
  std::uint64_t throttled = 0;
  double total_cost = 0.0;
  double move_cost = 0.0;
  double service_cost = 0.0;
  /// Pending workload steps summed over open sessions (horizon - cursor):
  /// the live queue depth the ROADMAP's million-session item asks for.
  std::size_t queue_depth = 0;
  /// Wall time of each step()/step_capturing()/drain() round, ns. Empty
  /// when timing is disabled (set_timing_enabled(false) / serve --lean).
  obs::HistogramSummary step_latency;
  /// Steps consumed per session — open sessions' cursors merged with the
  /// final step counts of every close()d session, so aggregate percentiles
  /// survive tenant churn instead of vanishing with the slot's engine.
  obs::HistogramSummary steps_per_session;
};

/// Everything needed to resume one multiplexed session: the spec identity
/// binding it to its slot (verified on restore — a checkpoint applied to
/// the wrong spec fails loudly) plus the engine checkpoint.
struct SessionCheckpointRecord {
  std::string tenant;
  std::string algorithm;
  std::uint64_t algo_seed = 0;
  std::size_t cursor = 0;   ///< workload steps consumed
  std::size_t horizon = 0;  ///< workload length at save time
  sim::SessionCheckpoint engine;
};

class SessionMultiplexer {
 public:
  /// \p grain is the number of consecutive ready sessions one pool task
  /// advances (scheduling only — results never depend on it).
  explicit SessionMultiplexer(par::ThreadPool& pool, std::size_t grain = 16);
  ~SessionMultiplexer();

  SessionMultiplexer(const SessionMultiplexer&) = delete;
  SessionMultiplexer& operator=(const SessionMultiplexer&) = delete;

  /// Registers a session (constructing its algorithm from the fleet
  /// registry) and returns its dense id. Sessions never record
  /// position/trace history — memory stays O(1) per session regardless of
  /// horizon. Sessions may be added at any time between step() calls; a
  /// session with pending work is armed immediately.
  std::size_t add(SessionSpec spec);

  [[nodiscard]] std::size_t size() const noexcept;
  /// Sessions currently armed on the ready list, as of the last
  /// add/poke/step/drain/close. A parked slot whose workload grew since
  /// (the streaming ingestion path grows Instances in place) is re-armed by
  /// poke() or by the next step()/drain() that finds the ready list empty —
  /// totals().live reports the true pending count either way.
  [[nodiscard]] std::size_t live() const noexcept;
  /// Alias for live(): the size of the ready set — the slots the next
  /// round will touch (the "active" half of the active/parked split).
  [[nodiscard]] std::size_t active() const noexcept { return live(); }

  /// Re-arms session \p id after its workload grew in place. O(1) and
  /// idempotent: a no-op on closed, already-armed, or still-done slots.
  /// The streaming front-end calls this after every appended batch so
  /// rounds never need to rescan the full population.
  void poke(std::size_t id);

  /// Updates session \p id's dispatch priority (see SessionSpec::priority).
  void set_priority(std::size_t id, double priority);

  /// Advances every ready session by up to \p max_steps steps (less where a
  /// rate limit bites), in parallel. Returns the number of sessions still
  /// ready afterwards. Exceptions from any session (e.g. a kThrow speed
  /// violation) propagate to the caller. Workloads may grow between (never
  /// during) calls: an empty ready list triggers a full rescan on entry, so
  /// an idle multiplexer always notices growth even without poke().
  std::size_t step(std::size_t max_steps = 1);

  /// One failure captured by step_capturing.
  struct SlotError {
    std::size_t id = 0;
    std::string message;
  };

  /// Like step(), but a session that throws (e.g. a kThrow speed violation)
  /// never takes the whole round down: the offending slot's error is
  /// appended to \p errors, that slot alone is closed (final accounting
  /// cached, engine released), and every other session advances normally.
  /// The service front-end steps through this so one misbehaving tenant
  /// cannot kill the process.
  std::size_t step_capturing(std::size_t max_steps, std::vector<SlotError>& errors);

  /// Runs every session to completion — rate limits are ignored (this is
  /// the terminal "consume everything" operation) and every slot with
  /// pending work is advanced, armed or parked (a full rescan on entry).
  void drain();

  /// Runs session \p id alone to the end of its current workload on the
  /// calling thread (the per-tenant drain hook: e.g. a service consuming a
  /// tenant's queued requests before closing it). No-op on closed slots.
  /// Ignores the slot's rate limit.
  void drain(std::size_t id);

  /// Closes session \p id: the engine and algorithm are destroyed (memory
  /// released), the final accounting is cached so stats()/totals() keep
  /// reporting it, and the slot is skipped by step/drain/checkpoint from now
  /// on. Ids of other sessions are unaffected; closing twice is a no-op.
  void close(std::size_t id);
  [[nodiscard]] bool closed(std::size_t id) const;

  [[nodiscard]] SessionStats stats(std::size_t id) const;
  /// stats(id)'s steps, costs and throttled rounds, read in place: no
  /// allocation, the same values bit for bit.
  [[nodiscard]] SessionProgress progress(std::size_t id) const;
  /// stats(id).positions, viewed in place; valid until the next round,
  /// close() or restore().
  [[nodiscard]] std::span<const sim::Point> positions(std::size_t id) const;
  [[nodiscard]] std::vector<SessionStats> snapshot() const;
  [[nodiscard]] MuxTotals totals() const;

  /// Captures every OPEN session's full state (one record per open slot, in
  /// id order; closed slots are gone and leave no record). Serialise with
  /// trace::write_checkpoint to survive restarts.
  [[nodiscard]] std::vector<SessionCheckpointRecord> checkpoint() const;

  /// Captures ONE open session's state — the incremental-checkpoint
  /// building block: serialising only dirty_slots() makes a periodic save
  /// cost O(progress since last save).
  [[nodiscard]] SessionCheckpointRecord checkpoint_slot(std::size_t id) const;

  /// Open slots that consumed steps since the last mark_saved() (a fresh
  /// slot is dirty until its first save). The scan is O(sessions) but each
  /// check is one integer compare; serialisation — the expensive part — is
  /// O(dirty).
  [[nodiscard]] std::vector<std::size_t> dirty_slots() const;

  /// Declares the current state saved: every open slot's cursor becomes its
  /// saved cursor, emptying dirty_slots(). Call after the bytes are safely
  /// on disk, never before.
  void mark_saved();

  /// Round wall-time timing (obs layer). On by default — the cost is two
  /// clock reads plus one histogram increment per *round*, amortised over
  /// every session the round advances (the obs/overhead perf row pins it
  /// within 2% of the lean path even at one session per round). Timing is
  /// observational only: results are bit-identical either way (§7).
  void set_timing_enabled(bool enabled) noexcept { timing_ = enabled; }
  [[nodiscard]] bool timing_enabled() const noexcept { return timing_; }

  /// Distribution of per-round wall times (ns) recorded so far.
  [[nodiscard]] const obs::Histogram& step_latency_histogram() const noexcept {
    return step_latency_;
  }
  /// Final step counts of close()d sessions (the churn-surviving half of
  /// MuxTotals::steps_per_session; totals() folds open cursors on top).
  [[nodiscard]] const obs::Histogram& closed_steps_histogram() const noexcept {
    return closed_steps_;
  }

  /// Resumes a checkpoint taken from a multiplexer with the SAME open
  /// sessions in the same order (workloads are re-supplied by the specs — a
  /// checkpoint stores engine state, not request data). Verifies each
  /// record against its slot's spec (algorithm, seed, tenant, horizon,
  /// fleet size) and fails loudly on any mismatch. After restore the mux
  /// continues bit-identically to one that was never interrupted; the
  /// ready list is rebuilt from the restored cursors and rate-limit
  /// buckets restart full (token state is scheduling-only).
  void restore(const std::vector<SessionCheckpointRecord>& records);

 private:
  struct Slot;
  /// Arms one slot if it is open, unarmed, and has pending work; a slot
  /// armed from parked starts with a full token bucket.
  void arm(std::size_t id);
  /// Arms every pending slot (the growth fallback and drain()'s entry scan).
  void rescan();
  /// Compacts stale ready entries, orders the round by priority, and
  /// computes each ready slot's per-round step grant from its token bucket.
  void prepare_round(std::size_t max_steps);
  /// Refills token buckets, parks finished slots, recounts live_.
  std::size_t finish_round();
  /// slot.close() + the closed-steps histogram carry (satellite of the
  /// telemetry layer: per-slot activity must survive close()).
  void close_slot(Slot& slot);

  par::ThreadPool& pool_;
  std::size_t grain_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::size_t> ready_ids_;  ///< the active set (armed slots)
  std::size_t live_ = 0;                ///< == ready count after each op
  std::uint64_t throttled_total_ = 0;   ///< lifetime throttled session-rounds
  bool has_priority_ = false;           ///< any nonzero priority ever seen
  bool timing_ = true;
  obs::Histogram step_latency_;  ///< per-round wall ns (when timing_)
  obs::Histogram closed_steps_;  ///< final step count of each closed slot
};

}  // namespace mobsrv::core
