#include "multitenant/mux_workload.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "workloads/factory.h"

namespace hybridtier {

MuxWorkload::MuxWorkload(std::vector<Tenant> tenants)
    : tenants_(std::move(tenants)) {
  HT_ASSERT(!tenants_.empty(), "mux workload needs at least one tenant");

  // Lay tenants out back to back, each span rounded up to a 2 MiB
  // boundary so huge-page tracking units never straddle two tenants.
  // Fleet-sized muxes get an abridged display name; the per-tenant
  // region names stay exact (metrics and results key on those).
  const bool abridge_name = tenants_.size() > 8;
  std::map<std::string, uint32_t> name_uses;
  uint64_t base = 0;
  name_ = "mux(";
  for (uint32_t i = 0; i < tenants_.size(); ++i) {
    const Workload& workload = *tenants_[i].workload;
    TenantRegion region;
    region.name = workload.name();
    const uint32_t use = name_uses[region.name]++;
    if (use > 0) {
      region.name += '#';
      region.name += std::to_string(use);
    }
    region.weight = tenants_[i].weight;
    region.base_page = base;
    region.footprint_pages = workload.footprint_pages();
    region.span_pages = (region.footprint_pages + kPagesPerHugePage - 1) /
                        kPagesPerHugePage * kPagesPerHugePage;
    region.windows = tenants_[i].windows;
    for (size_t w = 0; w < region.windows.size(); ++w) {
      const ResidencyWindow& window = region.windows[w];
      if (window.departure_ns != 0) {
        HT_ASSERT(window.departure_ns > window.arrival_ns, "tenant ",
                  region.name, " departs before it arrives");
      } else {
        HT_ASSERT(w + 1 == region.windows.size(), "tenant ", region.name,
                  ": only the last residency window may be open-ended");
      }
      if (w > 0) {
        HT_ASSERT(window.arrival_ns > region.windows[w - 1].departure_ns,
                  "tenant ", region.name,
                  " has overlapping or unordered residency windows");
      }
    }
    base += region.span_pages;
    if (!abridge_name || i < 4) {
      if (i > 0) name_ += "+";
      name_ += region.name;
    }
    // Tenants whose first window opens at t=0 (or who have no windows)
    // start in the rotation; the rest join when the clock reaches their
    // next window's arrival on the residency schedule.
    window_.push_back(0);
    if (region.ActiveAt(0)) {
      status_.push_back(Status::kActive);
      rotation_.push_back(i);
    } else {
      status_.push_back(Status::kPending);
    }
    directory_.regions.push_back(std::move(region));
  }
  if (abridge_name) {
    name_ += "+...x" + std::to_string(tenants_.size());
  }
  name_ += ")";
  total_span_pages_ = base;
  schedule_ = ResidencySchedule(directory_);
}

void MuxWorkload::RemoveFromRotation(uint32_t tenant) {
  const auto it = std::find(rotation_.begin(), rotation_.end(), tenant);
  if (it == rotation_.end()) return;
  const size_t slot = static_cast<size_t>(it - rotation_.begin());
  rotation_.erase(it);
  if (rr_next_ > slot) --rr_next_;
}

void MuxWorkload::AdvanceTenant(uint32_t tenant, TimeNs now) {
  const std::vector<ResidencyWindow>& windows =
      directory_.regions[tenant].windows;
  // One pass may cross several edges of the same tenant (a clock jump
  // over a whole window): walk its window list until the next edge is
  // still ahead of `now`.
  while (status_[tenant] != Status::kDeparted && !windows.empty()) {
    const ResidencyWindow& window = windows[window_[tenant]];
    if (status_[tenant] == Status::kPending) {
      if (now < window.arrival_ns) break;
      // Re-arrivals resume the suspended op stream; a stream that
      // already ran dry is dropped again on its first NextOp.
      status_[tenant] = Status::kActive;
      rotation_.push_back(tenant);
      churn_events_.push_back(
          TenantChurnEvent{window.arrival_ns, tenant, /*arrival=*/true});
    }
    // A departure ends the window whether the tenant is mid-stream
    // (process killed) or already finished (its pages lingered).
    if (window.departure_ns == 0 || now < window.departure_ns) break;
    if (status_[tenant] == Status::kActive) RemoveFromRotation(tenant);
    churn_events_.push_back(
        TenantChurnEvent{window.departure_ns, tenant, /*arrival=*/false});
    ++window_[tenant];
    status_[tenant] = window_[tenant] < windows.size() ? Status::kPending
                                                       : Status::kDeparted;
  }
}

void MuxWorkload::UpdateActivation(TimeNs now) {
  const size_t first_new = churn_events_.size();
  // A tenant whose later edges were already applied by an earlier pop
  // of this batch advances past them; its stale edges no-op here.
  schedule_.PopDue(now, [&](const ResidencySchedule::Edge& edge) {
    AdvanceTenant(edge.tenant, now);
  });
  // One batch can apply several edges of one tenant ahead of another
  // tenant's earlier edge; keep the log chronological.
  std::sort(churn_events_.begin() +
                static_cast<ptrdiff_t>(first_new),
            churn_events_.end(),
            [](const TenantChurnEvent& a, const TenantChurnEvent& b) {
              return std::tie(a.time_ns, a.tenant, a.arrival) <
                     std::tie(b.time_ns, b.tenant, b.arrival);
            });
}

bool MuxWorkload::NextOp(TimeNs now, OpTrace* op) {
  // The multiplexer's hottest path: one comparison when no edge is due
  // (always, for windowless runs and after the last edge).
  if (schedule_.Due(now)) UpdateActivation(now);
  while (!rotation_.empty()) {
    if (rr_next_ >= rotation_.size()) rr_next_ = 0;
    const uint32_t tenant = rotation_[rr_next_];
    if (!tenants_[tenant].workload->NextOp(now, op)) {
      // Tenant ran to completion; drop it from the rotation (its pages
      // stay resident, as a terminated process's would until reclaim —
      // or until a departure window releases them).
      status_[tenant] = Status::kFinished;
      rotation_.erase(rotation_.begin() + static_cast<ptrdiff_t>(rr_next_));
      continue;
    }
    op->think_time_ns = 0;
    const TenantRegion& region = directory_.regions[tenant];
    const uint64_t base_addr = region.base_page * kPageSize;
    const uint64_t span_bytes = region.span_pages * kPageSize;
    for (MemoryAccess& access : op->accesses) {
      HT_ASSERT(access.addr < span_bytes, "tenant ", region.name,
                " emitted address ", access.addr,
                " outside its footprint");
      access.addr += base_addr;
    }
    last_tenant_ = tenant;
    ++rr_next_;
    return true;
  }

  // Nobody is runnable. If an arrival is still ahead, emit a pure idle
  // gap that carries the clock to it; otherwise the mux is done. Every
  // pending tenant's next arrival is an unconsumed edge, and edges are
  // chronological, so the first pending arrival on the schedule is the
  // earliest one — no fleet-wide scan.
  TimeNs next_arrival = 0;
  bool have_pending = false;
  for (const ResidencySchedule::Edge& edge : schedule_.pending()) {
    if (edge.arrival && status_[edge.tenant] == Status::kPending) {
      next_arrival = edge.at;
      have_pending = true;
      break;
    }
  }
  if (!have_pending) return false;
  op->Clear();
  op->think_time_ns = next_arrival > now ? next_arrival - now : 1;
  return true;
}

double DefaultTenantScale(const std::string& id) {
  // Single-run defaults, capped at 1.0 so a handful of co-located
  // tenants still fits a quick run (only the graph kernels exceed it).
  return std::min(1.0, DefaultWorkloadScale(id));
}

std::unique_ptr<MuxWorkload> MakeMuxWorkload(
    const std::vector<TenantSpec>& specs, uint64_t seed) {
  HT_ASSERT(!specs.empty(), "tenant list is empty");
  std::vector<MuxWorkload::Tenant> tenants;
  tenants.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const TenantSpec& spec = specs[i];
    uint64_t tenant_seed = spec.seed;
    if (tenant_seed == 0) {
      uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
      tenant_seed = SplitMix64Next(state);
    }
    const double scale =
        spec.scale >= 0 ? spec.scale : DefaultTenantScale(spec.workload_id);
    MuxWorkload::Tenant tenant;
    tenant.workload = MakeWorkload(spec.workload_id, scale, tenant_seed);
    tenant.weight = spec.weight;
    tenant.windows = spec.windows;
    tenants.push_back(std::move(tenant));
  }
  return std::make_unique<MuxWorkload>(std::move(tenants));
}

}  // namespace hybridtier
