/// \file injector.hpp
/// Seeded, deterministic fault injection for the serve/persistence stack.
///
/// The serve layer's fault-tolerance claims (retry + degraded mode,
/// power-loss-safe snapshots, kill → --resume bit-identity) are only worth
/// anything if the failures that exercise them are reproducible. This
/// subsystem makes them so: hot paths register *named fault sites* —
/// fixed strings like "snapshot.delta_append" — and query them through a
/// null-checked hook that costs nothing when no injector is attached (the
/// same discipline as sim::RunOptions::step_latency):
///
///     if (faults != nullptr) faults->hit(fault::kSiteSnapshotRename);
///
/// An Injector holds rules (usually parsed from a --fault-plan JSON file,
/// see plan.hpp) that decide deterministically what each hit does: nothing,
/// an injected delay, a thrown FaultError (the code under test must treat
/// it exactly like a real I/O failure), or a hard crash (std::_Exit — no
/// flush, no destructors — the honest model of power loss for the
/// kill-at-checkpoint-phase soaks). Probabilistic rules draw from a
/// stats::Rng seeded from (plan seed, site name), so a given plan fires the
/// same hits on every run, on every machine.
///
/// Everything here is test/torture machinery: a production service simply
/// never attaches an injector, and the serve/fault_hook_overhead perf row
/// pins the disabled hook's cost within the existing 2% obs discipline.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stats/rng.hpp"

namespace mobsrv::fault {

/// Thrown by Injector::hit when a rule fires with Outcome::kFail. Callers
/// must handle it exactly like the real failure the site models (a full
/// disk, a failed rename) — the retry/degraded tests depend on that.
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(const std::string& what) : std::runtime_error(what) {}
};

/// What a firing rule does to the hitting thread.
enum class Outcome {
  kFail,   ///< throw FaultError (a recoverable I/O-style failure)
  kCrash,  ///< std::_Exit(kCrashExitCode): no flush, no atexit — power loss
  kDelay,  ///< sleep delay_us and return normally (latency injection only)
};

/// Exit code of an Outcome::kCrash firing; CI soaks assert on it to
/// distinguish an injected crash from an ordinary failure.
inline constexpr int kCrashExitCode = 86;

/// The fault sites this build wires (plan validation rejects any other
/// name). Hot paths pass these constants so a typo cannot silently create
/// a site nothing ever hits.
inline constexpr const char* kSiteSnapshotBaseWrite = "snapshot.base_write";
inline constexpr const char* kSiteSnapshotDeltaAppend = "snapshot.delta_append";
inline constexpr const char* kSiteSnapshotRename = "snapshot.rename";
inline constexpr const char* kSiteSnapshotFsync = "snapshot.fsync";
inline constexpr const char* kSiteMetricsWrite = "metrics.write";
inline constexpr const char* kSiteServeRead = "serve.read";
inline constexpr const char* kSiteTenantStep = "tenant.step";

/// All known site names, for plan validation and --help text.
[[nodiscard]] const std::vector<std::string>& known_sites();

/// One scheduled fault. Triggers compose with OR: the rule fires on a hit
/// when ANY armed trigger matches (nth-hit, every-Nth, seeded coin).
/// `count` caps the total firings; a fully spent rule never fires again —
/// "fail the first 3 appends, then recover" is {every: 1, count: 3}.
struct SiteRule {
  std::string site;           ///< which site this rule watches (a known_sites name)
  std::uint64_t nth = 0;      ///< fire on exactly the Nth hit (1-based; 0 = off)
  std::uint64_t every = 0;    ///< fire on every hit divisible by N (0 = off)
  double probability = 0.0;   ///< fire on a seeded coin per hit (0 = off)
  std::uint64_t count = 0;    ///< max firings (0 = unlimited)
  std::uint64_t delay_us = 0; ///< injected latency on each firing (any outcome)
  Outcome outcome = Outcome::kFail;
};

/// Deterministic fault scheduler. Thread contract: register every rule
/// before the service starts, then hit each site from exactly one thread.
/// The serve loop hits serve.read and tenant.step from its frame thread
/// and the persistence sites (snapshot.*, metrics.write) from its writer
/// thread; the mux workers never hold one. Sites keep separate state, so
/// only the cross-site total is shared (atomic).
class Injector {
 public:
  explicit Injector(std::uint64_t seed = 0) : seed_(seed) {}
  /// Moves are for building an injector (make_injector, --fault-plan
  /// parsing), before any thread hits it.
  Injector(Injector&& other) noexcept { *this = std::move(other); }
  Injector& operator=(Injector&& other) noexcept {
    seed_ = other.seed_;
    total_fired_.store(other.total_fired(), std::memory_order_relaxed);
    rules_added_ = other.rules_added_;
    sites_ = std::move(other.sites_);
    return *this;
  }

  /// Registers a rule. A rule with no armed trigger never fires.
  void add_rule(SiteRule rule);

  /// The hot hook: counts the hit, evaluates this site's rules, and — when
  /// one fires — sleeps the rule's delay, then throws FaultError (kFail),
  /// terminates the process (kCrash), or returns normally (kDelay).
  void hit(std::string_view site);

  /// Per-site accounting, for tests and the chaos reports.
  struct SiteStats {
    std::uint64_t hits = 0;   ///< times the site was queried
    std::uint64_t fired = 0;  ///< times any rule fired on it
  };
  [[nodiscard]] SiteStats stats(std::string_view site) const;
  /// Total rule firings across every site.
  [[nodiscard]] std::uint64_t total_fired() const noexcept {
    return total_fired_.load(std::memory_order_relaxed);
  }
  /// True when no rules are registered (the injector is inert).
  [[nodiscard]] bool empty() const noexcept { return sites_.empty(); }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  struct RuleState {
    SiteRule rule;
    stats::Rng rng;  ///< seeded from (injector seed, site, rule index)
    std::uint64_t fired = 0;
    explicit RuleState(SiteRule r, std::uint64_t seed)
        : rule(std::move(r)), rng(seed) {}
  };
  struct SiteState {
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
    std::vector<RuleState> rules;
  };

  std::uint64_t seed_;
  std::atomic<std::uint64_t> total_fired_{0};
  std::uint64_t rules_added_ = 0;
  std::unordered_map<std::string, SiteState> sites_;
};

}  // namespace mobsrv::fault
