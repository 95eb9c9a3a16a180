#include "serve/tenant_table.hpp"

#include <algorithm>

namespace mobsrv::serve {

namespace {

core::SessionSpec to_session_spec(const Tenant& tenant) {
  core::SessionSpec spec;
  spec.workload = tenant.workload;
  spec.algorithm = tenant.spec.algorithm;
  spec.algo_seed = tenant.spec.seed;
  spec.speed_factor = tenant.spec.speed_factor;
  spec.policy = tenant.spec.policy;
  spec.tenant = tenant.spec.tenant;
  spec.fleet_size = tenant.spec.fleet_size;
  spec.starts = tenant.spec.starts;
  spec.rate.steps_per_round = tenant.spec.rate;
  spec.rate.burst = tenant.spec.rate_burst;
  return spec;
}

}  // namespace

Tenant& TenantTable::admit(TenantSpec spec, core::SessionMultiplexer& mux) {
  auto workload = std::make_shared<sim::Instance>(spec.starts.front(), spec.params,
                                                  sim::RequestStore(spec.dim));
  return install(std::move(spec), std::move(workload), mux);
}

Tenant& TenantTable::admit_restored(TenantSpec spec, std::size_t consumed,
                                    core::SessionMultiplexer& mux) {
  // Pad the rebuilt workload with the steps the saved session already
  // consumed: the cursor resumes past them, so their content is never read
  // again — empty steps keep the restored process's request buffers
  // compact regardless of how long the tenant had been running.
  sim::RequestStore store(spec.dim);
  store.reserve(consumed, 0);
  for (std::size_t t = 0; t < consumed; ++t) store.push_batch(sim::BatchView{});
  auto workload =
      std::make_shared<sim::Instance>(spec.starts.front(), spec.params, std::move(store));
  return install(std::move(spec), std::move(workload), mux);
}

Tenant& TenantTable::install(TenantSpec spec, std::shared_ptr<sim::Instance> workload,
                             core::SessionMultiplexer& mux) {
  if (find(spec.tenant) != nullptr)
    throw FrameError("tenant \"" + spec.tenant + "\" is already open", spec.tenant);
  auto tenant = std::make_unique<Tenant>();
  tenant->spec = std::move(spec);
  tenant->workload = std::move(workload);
  tenant->emitted = tenant->workload->horizon();
  tenant->slot = mux.add(to_session_spec(*tenant));
  entries_.push_back(std::move(tenant));
  Tenant& installed = *entries_.back();
  by_name_.emplace(installed.spec.tenant, &installed);
  by_slot_.emplace(installed.slot, &installed);
  return installed;
}

Tenant* TenantTable::find(const std::string& name) {
  const auto it = by_name_.find(name);
  return it != by_name_.end() ? it->second : nullptr;
}

Tenant* TenantTable::find_slot(std::size_t slot) {
  const auto it = by_slot_.find(slot);
  return it != by_slot_.end() ? it->second : nullptr;
}

void TenantTable::erase(const std::string& name) {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return;
  const std::size_t slot = it->second->slot;
  by_slot_.erase(slot);
  by_name_.erase(it);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(first_at_or_after(slot)));
}

std::size_t TenantTable::first_at_or_after(std::size_t slot) const {
  // entries_ is in slot order: install appends ever-growing slot ids.
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), slot,
      [](const std::unique_ptr<Tenant>& tenant, std::size_t id) { return tenant->slot < id; });
  return static_cast<std::size_t>(it - entries_.begin());
}

}  // namespace mobsrv::serve
