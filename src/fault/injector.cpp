#include "fault/injector.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace mobsrv::fault {

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      kSiteSnapshotBaseWrite, kSiteSnapshotDeltaAppend, kSiteSnapshotRename,
      kSiteSnapshotFsync,     kSiteMetricsWrite,        kSiteServeRead,
      kSiteTenantStep,
  };
  return sites;
}

void Injector::add_rule(SiteRule rule) {
  // Each rule owns its own RNG stream, keyed by injector seed, site name
  // and registration order — adding a rule never perturbs another rule's
  // coin flips, so plans stay deterministic under editing.
  const std::uint64_t rule_seed =
      stats::mix_keys({seed_, stats::hash_name(rule.site), rules_added_++});
  SiteState& site = sites_[rule.site];
  site.rules.emplace_back(std::move(rule), rule_seed);
}

void Injector::hit(std::string_view site) {
  const auto it = sites_.find(std::string(site));
  if (it == sites_.end()) return;
  SiteState& state = it->second;
  ++state.hits;
  for (RuleState& rs : state.rules) {
    const SiteRule& rule = rs.rule;
    if (rule.count != 0 && rs.fired >= rule.count) continue;
    bool fire = false;
    if (rule.nth != 0 && state.hits == rule.nth) fire = true;
    if (rule.every != 0 && state.hits % rule.every == 0) fire = true;
    // The coin is drawn only when armed, so a plan without probabilistic
    // rules consumes no randomness at all.
    if (rule.probability > 0.0 && rs.rng.bernoulli(rule.probability)) fire = true;
    if (!fire) continue;
    ++rs.fired;
    ++state.fired;
    total_fired_.fetch_add(1, std::memory_order_relaxed);
    if (rule.delay_us != 0)
      std::this_thread::sleep_for(std::chrono::microseconds(rule.delay_us));
    switch (rule.outcome) {
      case Outcome::kDelay:
        break;  // latency only; keep evaluating the site's other rules
      case Outcome::kCrash:
        // Power loss: no stream flush, no destructors, no atexit — exactly
        // the failure the durable-write path must survive. stderr is
        // unbuffered, so the breadcrumb still lands.
        std::fprintf(stderr, "fault: injected crash at site %.*s (hit %llu)\n",
                     static_cast<int>(site.size()), site.data(),
                     static_cast<unsigned long long>(state.hits));
        std::_Exit(kCrashExitCode);
      case Outcome::kFail:
        throw FaultError("injected fault at site " + std::string(site) + " (hit " +
                         std::to_string(state.hits) + ")");
    }
  }
}

Injector::SiteStats Injector::stats(std::string_view site) const {
  const auto it = sites_.find(std::string(site));
  if (it == sites_.end()) return {};
  return {it->second.hits, it->second.fired};
}

}  // namespace mobsrv::fault
