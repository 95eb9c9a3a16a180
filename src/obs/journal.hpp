/// \file journal.hpp
/// Bounded structured event journal for the serve layer.
///
/// The journal records the service's *rare* lifecycle events — tenant
/// open/close, checkpoint saves, busy bounces, tenant errors, restore and
/// drain — as timestamped structured entries in a fixed-capacity ring.
/// Memory is bounded by construction: once full, the oldest event is
/// evicted and counted in dropped() (surfaced as the
/// `obs.journal_dropped_total` metric), never silently lost. The hot data
/// path (req frames, outcome emission, mux rounds) deliberately does NOT
/// journal — per-step volume belongs in histograms, not an event log.
///
/// Timestamps are wall-clock milliseconds (system_clock) and sequence
/// numbers are process-local and monotonic; both are observational only
/// and never feed algorithm decisions (DESIGN.md §7). The journal rides
/// the `metrics` frame and the --metrics-out NDJSON snapshot as
/// {"kind":"event",...} lines — see docs/OBSERVABILITY.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace mobsrv::obs {

/// What happened. Wire names via event_name().
enum class EventType {
  kOpen,        ///< tenant admitted
  kClose,       ///< tenant closed (graceful)
  kCheckpoint,  ///< snapshot saved
  kBusy,        ///< req frame bounced by backpressure
  kError,       ///< tenant failed (malformed frame / step error)
  kRestore,     ///< service restored from a snapshot
  kDrain,       ///< graceful drain (eof / shutdown / signal)
  kThrottle,    ///< tenant entered a rate-limit throttle episode
  kCompact,     ///< snapshot segment chain compacted into a fresh base
  kRetry,       ///< persistence write failed; service is backing off to retry
  kDegraded,    ///< degraded-mode transition (entered after exhausted retries,
                ///< or recovered on the next successful write)
  kTimeout,     ///< tenant closed by the --idle-timeout deadline
};

[[nodiscard]] const char* event_name(EventType type) noexcept;

/// One journal entry.
struct Event {
  std::uint64_t seq = 0;      ///< process-local, monotonic, never reused
  std::uint64_t unix_ms = 0;  ///< wall-clock milliseconds since the epoch
  EventType type = EventType::kOpen;
  std::string tenant;  ///< empty for service-wide events
  std::string detail;  ///< free-form context (error message, path, reason)
};

/// Fixed-capacity ring of Events, oldest-first iteration.
class Journal {
 public:
  explicit Journal(std::size_t capacity = 1024);

  /// Appends an event (stamping seq + wall clock); evicts the oldest when
  /// full.
  void record(EventType type, std::string tenant = {}, std::string detail = {});

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<Event> events() const;

  /// The retained event with sequence number \p seq, in place (no copy).
  /// Requires dropped() <= seq < total(). An event never changes once
  /// recorded, so a rendering keyed by seq stays valid until it is evicted.
  [[nodiscard]] const Event& at(std::uint64_t seq) const noexcept {
    return ring_[static_cast<std::size_t>(seq % ring_.size())];
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events recorded over the journal's lifetime (retained + dropped).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Events evicted by the bounded ring — also the seq of the oldest
  /// retained event.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t kept = std::min<std::uint64_t>(total_, ring_.size());
    return total_ - kept;
  }

  /// {"seq","ms","event","tenant"?,"detail"?} for one event.
  [[nodiscard]] static io::Json event_to_json(const Event& event);

 private:
  std::vector<Event> ring_;  ///< fixed size; slot = seq % capacity
  std::uint64_t total_ = 0;
};

}  // namespace mobsrv::obs
