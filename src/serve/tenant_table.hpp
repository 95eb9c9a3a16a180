/// \file tenant_table.hpp
/// The service's tenant registry: admission and the spec → session binding.
///
/// Every `open` frame admits one tenant: the table validates the spec
/// (unique name, known algorithm via the fleet registry), builds the
/// tenant's growing workload Instance (the in-flight queue IS the gap
/// between the Instance's horizon and the session's cursor), and registers
/// a session in the SessionMultiplexer. The table is the restart surface:
/// a snapshot persists every open tenant's spec in slot order so a
/// restored service re-admits them without new `open` frames — restored
/// workloads are padded with already-consumed empty steps, so a restart
/// also compacts a long-lived tenant's request history to O(1) bytes/step.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/session_multiplexer.hpp"
#include "serve/frames.hpp"

namespace mobsrv::serve {

/// One admitted tenant.
struct Tenant {
  TenantSpec spec;
  /// The growing workload; serve appends arriving batches in place (the
  /// multiplexer re-reads the horizon every round). Shared with the mux
  /// slot as a const alias.
  std::shared_ptr<sim::Instance> workload;
  std::size_t slot = 0;  ///< id in the SessionMultiplexer
  /// Steps whose `outcome` frames have been emitted (trails the session's
  /// cursor inside a pump round, equals it between rounds).
  std::size_t emitted = 0;
  /// Cost-accumulator snapshots at `emitted`, for per-step deltas.
  double emitted_move = 0.0;
  double emitted_service = 0.0;
  /// True while this tenant sits on the service's pending list (has
  /// consumed-but-unemitted or queued steps). Owned by serve::Service —
  /// the pump is O(pending tenants), not O(table).
  bool pending = false;
  /// True while the tenant is inside a throttle episode (journaled once on
  /// entry, cleared when the scheduler lets it advance again).
  bool throttling = false;
  /// Mux throttled-round count already attributed to journal episodes.
  std::size_t throttled_seen = 0;
  /// Service line counter (Service::lines_) at this tenant's last sign of
  /// life: admission, an accepted/bounced req, a named stats query, or an
  /// emitted outcome. Drives the --idle-timeout reaper.
  std::uint64_t last_activity = 0;
};

/// Name → live session bindings, in slot order. Closed tenants leave the
/// table (their final accounting stays cached in the multiplexer's slot).
class TenantTable {
 public:
  /// Admits a tenant: validates the name is free, builds the workload and
  /// registers the session. Throws FrameError (duplicate name) or
  /// ContractViolation (unknown algorithm, k > 1 for a single-server
  /// strategy — surfaced by the registry/mux) without mutating anything.
  Tenant& admit(TenantSpec spec, core::SessionMultiplexer& mux);

  /// As admit, but for a tenant restored from a snapshot: the workload is
  /// rebuilt as \p consumed already-consumed empty steps (the engine state
  /// arrives separately via SessionMultiplexer::restore).
  Tenant& admit_restored(TenantSpec spec, std::size_t consumed, core::SessionMultiplexer& mux);

  /// The open tenant with this name, or nullptr. O(1) hash lookup —
  /// admission and the req hot path must not scan a million-tenant table.
  [[nodiscard]] Tenant* find(const std::string& name);

  /// The open tenant bound to this mux slot, or nullptr. O(1); the pump
  /// uses it to attribute per-slot scheduler state (errors, throttles).
  [[nodiscard]] Tenant* find_slot(std::size_t slot);

  /// Removes a tenant from the table (the caller is responsible for the
  /// mux-side close/drain). No-op if absent. O(log n) to locate the entry
  /// by slot, plus the vector shift.
  void erase(const std::string& name);

  /// Open tenants in slot order (slots are admitted in increasing order).
  [[nodiscard]] const std::vector<std::unique_ptr<Tenant>>& entries() const noexcept {
    return entries_;
  }

  /// The open tenants whose slot is \p slot or later: a suffix of
  /// entries(), found by binary search.
  [[nodiscard]] std::span<const std::unique_ptr<Tenant>> from_slot(std::size_t slot) const {
    return std::span(entries_).subspan(first_at_or_after(slot));
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  /// Index of the first entry whose slot is >= \p slot.
  [[nodiscard]] std::size_t first_at_or_after(std::size_t slot) const;

  Tenant& install(TenantSpec spec, std::shared_ptr<sim::Instance> workload,
                  core::SessionMultiplexer& mux);

  std::vector<std::unique_ptr<Tenant>> entries_;
  /// O(1) lookup indexes over entries_ (Tenant addresses are stable —
  /// entries_ holds unique_ptrs). Rebuilt incrementally on admit/erase.
  std::unordered_map<std::string, Tenant*> by_name_;
  std::unordered_map<std::size_t, Tenant*> by_slot_;
};

}  // namespace mobsrv::serve
