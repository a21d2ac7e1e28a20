#include "multitenant/fair_share_policy.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "multitenant/quota_controller.h"

namespace hybridtier {

namespace {

// Synthetic metadata line addresses (one region per structure, same
// convention as the baseline policies; 1<<50+ keeps clear of their maps).
constexpr uint64_t kQuotaTableBase = 1ULL << 50;   // Per-tenant quota rows.
constexpr uint64_t kSharePagemapBase = 1ULL << 51; // Enforcement scans.
constexpr uint64_t kGhostTableBase = 1ULL << 52;   // Shadow MRC counters.
// Per-tenant stride of the ghost table's synthetic line addresses.
constexpr uint64_t kGhostTenantStride = 1ULL << 32;

}  // namespace

QuotaMode ParseQuotaMode(const std::string& name) {
  if (name == "density") return QuotaMode::kDensity;
  if (name == "marginal") return QuotaMode::kMarginal;
  HT_FATAL("unknown quota mode '", name, "' (want density | marginal)");
}

const char* QuotaModeName(QuotaMode mode) {
  return mode == QuotaMode::kDensity ? "density" : "marginal";
}

/**
 * The migration gate handed to the base policy: promotions are filtered
 * by per-tenant quota headroom, demotions pass straight through. All
 * real work (and all stats) happens in the wrapped run's engine; this
 * object's own counters stay empty.
 */
class FairSharePolicy::QuotaGate : public MigrationEngine {
 public:
  QuotaGate(MigrationEngine* inner, FairSharePolicy* owner)
      : MigrationEngine(inner->memory(), inner->perf_model(), inner->mode()),
        inner_(inner),
        owner_(owner) {}

  TimeNs Promote(std::span<const PageId> pages, TimeNs now,
                 MigrationReason reason) override {
    return owner_->GatedPromote(pages, now, reason);
  }

  TimeNs Demote(std::span<const PageId> pages, TimeNs now,
                MigrationReason reason) override {
    return inner_->Demote(pages, now, reason);
  }

  /** The audit lives on the real engine; the base policy reaches it
   *  through the gate (e.g. for cooling-epoch stamps). */
  DecisionAudit* audit() const override { return inner_->audit(); }

 private:
  MigrationEngine* inner_;
  FairSharePolicy* owner_;
};

FairSharePolicy::FairSharePolicy(std::unique_ptr<TieringPolicy> base,
                                 TenantDirectory directory,
                                 FairShareConfig config)
    : base_(std::move(base)),
      directory_(std::move(directory)),
      config_(config) {
  HT_ASSERT(base_ != nullptr, "fair-share wrapper needs a base policy");
  HT_ASSERT(!directory_.regions.empty(),
            "fair-share wrapper needs at least one tenant");
  HT_ASSERT(config_.release_batch > 0,
            "fair-share release_batch must be positive");
  name_ = std::string("FairShare(") + base_->name() + ")";
}

FairSharePolicy::~FairSharePolicy() = default;

void FairSharePolicy::Bind(const PolicyContext& context) {
  TieringPolicy::Bind(context);

  // The directory must tile the whole run footprint — anything else
  // means the policy was paired with the wrong workload.
  const PageRange first =
      directory_.regions.front().UnitRange(context.mode);
  const PageRange last = directory_.regions.back().UnitRange(context.mode);
  HT_ASSERT(first.begin == 0 && last.end == context.footprint_units,
            "tenant directory covers units [", first.begin, ", ", last.end,
            ") but the run footprint is ", context.footprint_units);
  // Occupancy and tenant lookups read the memory's region tallies, so
  // its accounting regions must be the directory's, in the same order.
  const uint32_t n = directory_.size();
  HT_ASSERT(context.memory->region_count() == n, "memory defines ",
            context.memory->region_count(), " accounting regions for ", n,
            " tenants");
  for (uint32_t t = 0; t < n; ++t) {
    const PageRange range = directory_.regions[t].UnitRange(context.mode);
    HT_ASSERT(context.memory->RegionOf(range.begin) == t &&
                  context.memory->RegionOf(range.end - 1) == t,
              "memory region layout differs from the tenant directory at "
              "tenant ", t);
  }
  // Endpoint health is read from the timing model (HomeDown).
  HT_ASSERT(context.perf != nullptr, "fair-share wrapper needs a perf model");

  quota_.assign(n, 0);
  static_quota_.assign(n, 0);
  window_fast_samples_.assign(n, 0);
  window_slow_samples_.assign(n, 0);
  demand_ema_.assign(n, 0.0);
  gated_promotions_.assign(n, 0);
  enforced_demotions_.assign(n, 0);
  fill_promotions_.assign(n, 0);
  released_units_.assign(n, 0);
  batch_admits_.assign(n, 0);
  candidates_.assign(n, {});
  pending_pages_.assign(n, {});
  shadow_samples_.assign(n, 0);
  marginal_utility_.assign(n, 0.0);
  grace_until_ns_.assign(n, 0);
  // Endpoint awareness needs more than one endpoint to distinguish;
  // otherwise every unit costs the same and the cost-scaled rankings
  // would just be the blind ones.
  endpoint_aware_active_ =
      config_.endpoint_aware && context.memory->endpoint_count() > 1;
  next_rebalance_ns_ = config_.rebalance_interval_ns;

  // Trace tracks: one controller track for rebalance decisions, one
  // track per tenant for churn edges and quota awards. Registration
  // order is the fixed tenant order, so tids are deterministic.
  trace_ = context.trace;
  tenant_track_.assign(n, 0);
  drain_start_ns_.assign(n, 0);
  if (trace_ != nullptr) {
    controller_track_ = trace_->Track("quota/controller");
    for (uint32_t t = 0; t < n; ++t) {
      tenant_track_[t] =
          trace_->Track("quota/" + directory_.regions[t].name);
    }
  }

  // The shadow MRC estimate exists only when the marginal controller
  // can use it: density runs keep their metadata footprint unchanged.
  // Tenants whose span exceeds the sample budget get SHARDS spatial
  // sampling at the smallest rate that fits, so a fleet of million-unit
  // tenants carries kilobytes of ghost state each, not megabytes.
  ghost_.clear();
  if (config_.rebalance && config_.quota_mode == QuotaMode::kMarginal) {
    ghost_.reserve(n);
    for (uint32_t t = 0; t < n; ++t) {
      const uint64_t span =
          directory_.regions[t].UnitRange(context.mode).size();
      ghost_.emplace_back(
          span, GhostMrc::SampleShiftFor(span, config_.ghost_sample_budget));
    }
  }

  // Residency-window state at t=0; later edges apply at the tick that
  // crosses them (ApplyChurn). The full edge schedule is precomputed
  // here — sorted by time, consumed by a cursor — so churn bookkeeping
  // never rescans the fleet.
  churn_state_.assign(n, kChurnPending);
  window_index_.assign(n, 0);
  drain_cursor_.assign(n, 0);
  active_.clear();
  active_index_.assign(n, kNoSlot);
  draining_.clear();
  draining_index_.assign(n, kNoSlot);
  churn_edges_.clear();
  churn_cursor_ = 0;
  churn_edge_visits_ = 0;
  rebalance_tenant_visits_ = 0;
  enforce_tenant_visits_ = 0;
  fill_tenant_visits_ = 0;
  for (uint32_t t = 0; t < n; ++t) {
    if (directory_.regions[t].ActiveAt(0)) {
      churn_state_[t] = kChurnActive;
      AddActive(t);
    }
    for (const ResidencyWindow& window : directory_.regions[t].windows) {
      if (window.arrival_ns > 0) {
        churn_edges_.push_back(ChurnEdge{window.arrival_ns, t});
      }
      if (window.departure_ns > 0) {
        churn_edges_.push_back(ChurnEdge{window.departure_ns, t});
      }
    }
  }
  std::sort(churn_edges_.begin(), churn_edges_.end(),
            [](const ChurnEdge& a, const ChurnEdge& b) {
              return a.at != b.at ? a.at < b.at : a.tenant < b.tenant;
            });

  ComputeStaticQuotas();
  quota_ = static_quota_;

  // The base policy sees the same context, with migrations rerouted
  // through the quota gate.
  gate_ = std::make_unique<QuotaGate>(context.migration, this);
  PolicyContext gated = context;
  gated.migration = gate_.get();
  base_->Bind(gated);
}

void FairSharePolicy::AddActive(uint32_t tenant) {
  if (active_index_[tenant] != kNoSlot) return;
  active_index_[tenant] = static_cast<uint32_t>(active_.size());
  active_.push_back(tenant);
}

void FairSharePolicy::RemoveActive(uint32_t tenant) {
  const uint32_t slot = active_index_[tenant];
  if (slot == kNoSlot) return;
  const uint32_t moved = active_.back();
  active_[slot] = moved;
  active_index_[moved] = slot;
  active_.pop_back();
  active_index_[tenant] = kNoSlot;
}

void FairSharePolicy::AddDraining(uint32_t tenant) {
  if (draining_index_[tenant] != kNoSlot) return;
  draining_index_[tenant] = static_cast<uint32_t>(draining_.size());
  draining_.push_back(tenant);
}

void FairSharePolicy::RemoveDraining(uint32_t tenant) {
  const uint32_t slot = draining_index_[tenant];
  if (slot == kNoSlot) return;
  const uint32_t moved = draining_.back();
  draining_[slot] = moved;
  draining_index_[moved] = slot;
  draining_.pop_back();
  draining_index_[tenant] = kNoSlot;
}

void FairSharePolicy::ComputeStaticQuotas() {
  // Pending and departed tenants hold no capacity: their weight drops
  // out of the division, so the active tenants absorb the whole tier.
  // Their static_quota_ entries were zeroed at the state transition, so
  // the division runs over the compact active set only.
  const size_t m = active_.size();
  scratch_demand_.assign(m, 0.0);
  scratch_caps_.assign(m, 0);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t t = active_[i];
    scratch_demand_[i] = directory_.regions[t].weight;
    scratch_caps_[i] = directory_.regions[t].UnitRange(context().mode).size();
  }
  const std::vector<uint64_t> shares = DivideProportional(
      scratch_demand_, scratch_caps_, EffectiveFastCapacity());
  for (size_t i = 0; i < m; ++i) static_quota_[active_[i]] = shares[i];
}

uint64_t FairSharePolicy::EffectiveFastCapacity() const {
  const uint64_t cap = context().fast_capacity_units;
  const PerfModel& perf = *context().perf;
  if (!perf.AnyEndpointDown()) [[likely]] return cap;
  uint64_t stranded = 0;
  for (uint32_t e = 0; e < memory().endpoint_count(); ++e) {
    if (perf.EndpointDown(e)) stranded += memory().EndpointHomedFastResident(e);
  }
  return cap - std::min(cap, stranded);
}

void FairSharePolicy::OnEndpointHealth(uint32_t endpoint,
                                       EndpointHealth state, TimeNs now) {
  // Re-plan immediately over the effective capacity: the static quotas
  // shrink/grow with the stranded share, and a full re-division at the
  // transition instant replaces a thrashing sequence of enforcement
  // batches spread over the following rebalance window.
  ComputeStaticQuotas();
  if (config_.rebalance) Rebalance(now);
  else quota_ = static_quota_;
  if (trace_ != nullptr) {
    trace_->Instant(controller_track_, "endpoint_health", now,
                    {{"endpoint", static_cast<double>(endpoint)},
                     {"state", static_cast<double>(state)},
                     {"effective_capacity",
                      static_cast<double>(EffectiveFastCapacity())}});
  }
  base_->OnEndpointHealth(endpoint, state, now);
}

bool FairSharePolicy::CheckInvariants(std::string* error) const {
  // Quotas must never promise more than the (effective) tier, and a
  // tenant can never be awarded more than its own region span.
  uint64_t quota_total = 0;
  for (const uint32_t t : active_) {
    const uint64_t span =
        directory_.regions[t].UnitRange(context().mode).size();
    if (quota_[t] > span) {
      *error = detail::StrCat("tenant ", t, " quota ", quota_[t],
                              " exceeds its region span ", span);
      return false;
    }
    quota_total += quota_[t];
  }
  if (quota_total > context().fast_capacity_units) {
    *error = detail::StrCat("active quotas sum to ", quota_total,
                            " units > fast capacity ",
                            context().fast_capacity_units);
    return false;
  }
  return true;
}

bool FairSharePolicy::AdvanceTenantWindows(uint32_t t, TimeNs now) {
  const std::vector<ResidencyWindow>& windows = directory_.regions[t].windows;
  if (windows.empty()) return false;  // Resident for the whole run.
  bool changed = false;
  // A clock jump can cross several of a tenant's window edges at once;
  // walk its window list until the next edge is still ahead. A draining
  // tenant normally blocks here — its next window cannot open until the
  // paced reclaim has released the region (DrainDeparting advances it).
  while (churn_state_[t] != kChurnDeparted) {
    if (churn_state_[t] == kChurnDraining) {
      // The pace yields when it must: if the tenant's next window has
      // already opened, flush the remainder now (the legacy one-shot
      // teardown) so re-admission never runs against a half-released
      // region the drain is still demoting.
      const size_t next = window_index_[t] + 1;
      if (next >= windows.size() || now < windows[next].arrival_ns) {
        break;
      }
      ForceFinishDrain(t, now);
      changed = true;
      continue;  // Now kChurnPending at the next window.
    }
    const ResidencyWindow& window = windows[window_index_[t]];
    if (churn_state_[t] == kChurnPending) {
      if (now < window.arrival_ns) break;
      churn_state_[t] = kChurnActive;
      AddActive(t);
      changed = true;
      if (trace_ != nullptr) {
        trace_->Instant(tenant_track_[t], "arrival", now,
                        {{"window", static_cast<double>(window_index_[t])}});
      }
      if (config_.arrival_grace > 0.0) {
        // Warm-up grace: the newcomer has no demand history, so the
        // first rebalance would drop it to the min_share floor (the
        // post-arrival fairness dip fig_tenant_churn measures). Raise
        // its floor for one window and seed its demand EMA from the
        // incumbents' weighted average, so it bids as an average
        // tenant until its own samples arrive. Re-arrivals get the
        // same grace: their demand state was reset at release.
        grace_until_ns_[t] = now + config_.rebalance_interval_ns;
        double sum_weight = 0.0;
        double sum_weighted_ema = 0.0;
        for (const uint32_t s : active_) {
          if (s == t) continue;
          const double w = directory_.regions[s].weight;
          sum_weight += w;
          sum_weighted_ema += w * demand_ema_[s];
        }
        if (sum_weight > 0.0) {
          demand_ema_[t] = sum_weighted_ema / sum_weight;
        }
      }
    }
    if (window.departure_ns == 0 || now < window.departure_ns) break;
    // Departure: the tenant stops holding quota immediately (the
    // survivors absorb its capacity this tick) and enters the paced
    // reclaim drain; the region is released when the drain finishes.
    churn_state_[t] = kChurnDraining;
    RemoveActive(t);
    AddDraining(t);
    quota_[t] = 0;
    static_quota_[t] = 0;
    marginal_utility_[t] = 0.0;
    window_fast_samples_[t] = 0;
    window_slow_samples_[t] = 0;
    drain_cursor_[t] = directory_.regions[t].UnitRange(context().mode).begin;
    drain_start_ns_[t] = now;
    changed = true;
    if (trace_ != nullptr) {
      trace_->Instant(tenant_track_[t], "departure", now,
                      {{"fast_units", static_cast<double>(fast_units(t))}});
    }
  }
  return changed;
}

void FairSharePolicy::ApplyChurn(TimeNs now) {
  // O(1) when no edge is due: the schedule is sorted and the cursor
  // only moves forward.
  if (churn_cursor_ >= churn_edges_.size() ||
      now < churn_edges_[churn_cursor_].at) {
    return;
  }
  bool changed = false;
  while (churn_cursor_ < churn_edges_.size() &&
         churn_edges_[churn_cursor_].at <= now) {
    const uint32_t t = churn_edges_[churn_cursor_].tenant;
    ++churn_cursor_;
    ++churn_edge_visits_;
    // A tenant whose earlier edge already advanced it past this one
    // makes this pop a no-op (AdvanceTenantWindows walks every crossed
    // edge at once after a clock jump).
    changed = AdvanceTenantWindows(t, now) || changed;
  }
  if (changed) {
    // Re-divide the tier over the tenants now present. Jumping straight
    // to the new static split hands a departure's capacity to the
    // survivors this tick; the scheduled rebalance then re-applies the
    // surviving tenants' demand EMAs on top.
    ComputeStaticQuotas();
    for (const uint32_t t : active_) quota_[t] = static_quota_[t];
  }
}

void FairSharePolicy::DrainDeparting(TimeNs now) {
  // Walk the dense draining list; FinishRelease removes the tenant by
  // swapping the back into its slot, so the index only advances when
  // the slot's occupant survived the visit.
  for (size_t i = 0; i < draining_.size();) {
    const uint32_t t = draining_[i];
    if (fast_units(t) > 0) {
      // Reclaim writeback, paced: demote up to release_batch fast units
      // per tick, in address order — hotness ranking is pointless for a
      // dead tenant's pages, sequential reclaim is what an exit path
      // does. The scan resumes at the drain cursor, so each pagemap
      // byte is walked once per pass instead of once per tick.
      const PageRange range =
          directory_.regions[t].UnitRange(context().mode);
      victims_.clear();
      const PageId start = drain_cursor_[t];
      PageId unit = start;
      for (; unit < range.end && victims_.size() < config_.release_batch;
           ++unit) {
        sink().Touch(kSharePagemapBase + (unit / 8) * kCacheLineSize);
        if (memory().IsResident(unit) &&
            memory().TierOf(unit) == Tier::kFast) {
          // The engine refuses a demotion homed on a down endpoint, so
          // the cursor never passes one: the drain parks on it and
          // retries every tick until the endpoint recovers.
          if (HomeDown(unit)) break;
          victims_.push_back(unit);
        }
      }
      HT_ASSERT(start != range.begin || unit < range.end ||
                    !victims_.empty() || fast_units(t) == 0,
                "drain pass over tenant ", t, "'s region found none of its ",
                fast_units(t), " fast units");
      // The zero quota gates every promotion path, but fault evacuation
      // promotes from outside the gate and can land fast units behind
      // the cursor; a pass that reaches the region end restarts at its
      // beginning so those are drained too.
      drain_cursor_[t] = unit < range.end ? unit : range.begin;
      if (!victims_.empty()) {
        migration().Demote(victims_, now, MigrationReason::kChurnDrain);
      }
    }
    if (fast_units(t) == 0) {
      FinishRelease(t, now);  // Removes t from draining_.
    } else {
      ++i;
    }
  }
}

void FairSharePolicy::ForceFinishDrain(uint32_t tenant, TimeNs now) {
  const PageRange range =
      directory_.regions[tenant].UnitRange(context().mode);
  victims_.clear();
  memory().ScanResident(range.begin, range.size(), Tier::kFast,
                        [this](PageId unit) {
                          sink().Touch(kSharePagemapBase +
                                       (unit / 8) * kCacheLineSize);
                          if (!HomeDown(unit)) victims_.push_back(unit);
                        });
  if (!victims_.empty()) {
    migration().Demote(victims_, now, MigrationReason::kChurnDrain);
  }
  // Units homed on a down endpoint cannot be written back; the release
  // frees them in place, as exit reclaim frees a dead process's pages.
  FinishRelease(tenant, now);
}

void FairSharePolicy::FinishRelease(uint32_t tenant, TimeNs now) {
  // Only units homed on a down endpoint (which the engine refuses to
  // demote) may still be fast-resident here; Release frees them.
  HT_ASSERT(fast_units(tenant) == 0 || context().perf->AnyEndpointDown(),
            "tenant ", tenant, " still holds ", fast_units(tenant),
            " fast units at release and no endpoint is down");
  // The region returns to the free pools, as exit reclaim would free a
  // dead process's memory; a later residency window re-allocates it
  // from scratch via first touches.
  const PageRange range =
      directory_.regions[tenant].UnitRange(context().mode);
  const uint64_t released = memory().Release(range);
  released_units_[tenant] += released;
  if (trace_ != nullptr) {
    // The reclaim-drain window: departure edge to region release.
    trace_->Span(tenant_track_[tenant], "drain", drain_start_ns_[tenant],
                 now, {{"released", static_cast<double>(released)}});
  }
  window_fast_samples_[tenant] = 0;
  window_slow_samples_[tenant] = 0;
  demand_ema_[tenant] = 0.0;
  candidates_[tenant].clear();
  pending_pages_[tenant].clear();
  marginal_utility_[tenant] = 0.0;
  grace_until_ns_[tenant] = 0;
  if (!ghost_.empty()) {
    ghost_[tenant].Reset();
    shadow_samples_[tenant] = 0;
  }
  // Advance to the tenant's next residency window, if it has one. No
  // quota re-division here: the tenant already lost its quota at the
  // departure tick, and finishing the drain changes nothing for the
  // survivors.
  RemoveDraining(tenant);
  ++window_index_[tenant];
  churn_state_[tenant] =
      window_index_[tenant] < directory_.regions[tenant].windows.size()
          ? kChurnPending
          : kChurnDeparted;
}

uint64_t FairSharePolicy::RebalanceFloor(uint32_t tenant,
                                         TimeNs now) const {
  double fraction = config_.min_share;
  // Post-arrival grace: guarantee (a fraction of) the static share for
  // the first window while the demand estimate warms up.
  if (now < grace_until_ns_[tenant]) {
    fraction = std::max(fraction, config_.arrival_grace);
  }
  return static_cast<uint64_t>(
      static_cast<double>(static_quota_[tenant]) * std::min(fraction, 1.0));
}

void FairSharePolicy::RebalanceDensity(TimeNs now) {
  // Hit density: sampled fast-tier hits per resident unit, smoothed by
  // a halving EMA over rebalance windows (the cooling idiom the paper's
  // trackers use: responsive to shifts, stable against one noisy
  // window). Density is value-per-unit of capacity, so capacity flows
  // to tenants that actually reuse it — raw access volume would let a
  // streaming tenant with no reuse out-bid every hot set. (Density is
  // still blind to *marginal* value: a streamer's few resident pages
  // can look dense while extra capacity would gain it nothing — the
  // case the marginal mode handles.)
  const size_t m = active_.size();
  double total_demand = 0.0;
  for (const uint32_t t : active_) {
    const double density =
        static_cast<double>(window_fast_samples_[t]) /
        static_cast<double>(std::max<uint64_t>(1, fast_units(t)));
    demand_ema_[t] = demand_ema_[t] * 0.5 + density;
    total_demand += demand_ema_[t];
    sink().Touch(kQuotaTableBase + (t / 2) * kCacheLineSize);
  }
  if (total_demand <= 0.0) return;

  // Guaranteed floor first, then the rest in proportion to
  // weight-scaled hit density. Inactive tenants' quotas were zeroed at
  // their departure transition; the division is over the active set.
  scratch_demand_.assign(m, 0.0);
  scratch_caps_.assign(m, 0);
  uint64_t floor_total = 0;
  for (size_t i = 0; i < m; ++i) {
    const uint32_t t = active_[i];
    const uint64_t span =
        directory_.regions[t].UnitRange(context().mode).size();
    const uint64_t floor_units = std::min(span, RebalanceFloor(t, now));
    quota_[t] = floor_units;
    floor_total += floor_units;
    scratch_caps_[i] = span - floor_units;
    scratch_demand_[i] = directory_.regions[t].weight * demand_ema_[t];
  }
  const uint64_t fast_cap = EffectiveFastCapacity();
  const std::vector<uint64_t> extra = DivideProportional(
      scratch_demand_, scratch_caps_,
      fast_cap - std::min(fast_cap, floor_total));
  for (size_t i = 0; i < m; ++i) quota_[active_[i]] += extra[i];
}

void FairSharePolicy::RebalanceMarginal(TimeNs now) {
  // Water-filling on the ghost estimates: each tenant bids its shadow
  // demand curve ("my q-th hottest unit would contribute v sampled hits
  // per window") and capacity flows to the highest weighted marginal
  // utility above the guaranteed floors. Unlike hit density, the bid of
  // a streaming tenant collapses past its tiny reuse set — its curve is
  // flat at 1 — so it cannot out-bid a hot set for capacity it would
  // waste, however many accesses it issues. The division runs over the
  // compact active set: inactive tenants' quotas are already zero.
  const size_t m = active_.size();
  std::vector<std::vector<GhostDemandStep>> curves(m);
  scratch_demand_.assign(m, 0.0);
  scratch_floors_.assign(m, 0);
  scratch_caps_.assign(m, 0);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t t = active_[i];
    const uint64_t span =
        directory_.regions[t].UnitRange(context().mode).size();
    scratch_demand_[i] = directory_.regions[t].weight;
    scratch_caps_[i] = span;
    scratch_floors_[i] = std::min(span, RebalanceFloor(t, now));
    ghost_[t].AppendDemandSteps(&curves[i]);
    sink().Touch(kQuotaTableBase + (t / 2) * kCacheLineSize);
  }
  const std::vector<uint64_t> shares =
      MarginalUtilityQuotas(curves, scratch_demand_, scratch_floors_,
                            scratch_caps_, EffectiveFastCapacity());
  for (size_t i = 0; i < m; ++i) {
    const uint32_t t = active_[i];
    quota_[t] = shares[i];
    // The water level this tenant bid at: hits/window of its next unit
    // past the awarded quota. Then cool — the ghost is a halving EMA
    // over rebalance windows, like the density EMA it replaces.
    marginal_utility_[t] =
        static_cast<double>(ghost_[t].RankValue(quota_[t]));
    ghost_[t].CoolByHalving();
  }
}

void FairSharePolicy::Rebalance(TimeNs now) {
  // Every loop below walks the dense active set — one rebalance costs
  // O(active tenants), whatever the fleet size.
  const size_t m = active_.size();
  rebalance_tenant_visits_ += m;
  // Sampled fast-tier fraction this window, for rotation (both modes);
  // indexed by active-set position.
  scratch_fraction_.assign(m, 1.0);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t t = active_[i];
    const uint64_t window_total =
        window_fast_samples_[t] + window_slow_samples_[t];
    if (window_total > 0) {
      scratch_fraction_[i] = static_cast<double>(window_fast_samples_[t]) /
                             static_cast<double>(window_total);
    }
  }

  if (config_.quota_mode == QuotaMode::kMarginal) {
    RebalanceMarginal(now);
  } else {
    RebalanceDensity(now);
  }
  // Windows are per-rebalance; absent tenants' were zeroed at their
  // departure transition, so a t=0-departed slot never skews a later
  // division.
  for (const uint32_t t : active_) {
    window_fast_samples_[t] = 0;
    window_slow_samples_[t] = 0;
  }

  if (trace_ != nullptr) {
    // The re-division decision: one controller instant, plus each
    // active tenant's awarded quota (and its water-filling bid in
    // marginal mode) on its own track.
    trace_->Instant(controller_track_, "rebalance", now,
                    {{"fast_capacity",
                      static_cast<double>(EffectiveFastCapacity())}});
    for (const uint32_t t : active_) {
      trace_->Instant(tenant_track_[t], "quota", now,
                      {{"quota_units", static_cast<double>(quota_[t])},
                       {"fast_units", static_cast<double>(fast_units(t))},
                       {"marginal_utility", marginal_utility_[t]}});
    }
  }

  // Rotate tenants whose placement is visibly bad: most of their
  // sampled accesses missed the fast tier even though they sit at (or
  // above) their fill limit, so the resident mix — not the quota — is
  // the problem. Demoting to the fill limit gives the filler room to
  // swap the sampled-hot pages in; a tenant with a good mix is left
  // alone (no churn).
  for (size_t i = 0; i < m; ++i) {
    const uint32_t t = active_[i];
    if (scratch_fraction_[i] < config_.rotate_below) {
      if (trace_ != nullptr) {
        trace_->Instant(tenant_track_[t], "rotate", now,
                        {{"fast_fraction", scratch_fraction_[i]}});
      }
      DemoteToTarget(t, FillLimit(t), now, MigrationReason::kQuotaRotation);
    }
  }
}

uint64_t FairSharePolicy::FillLimit(uint32_t tenant) const {
  const uint64_t margin = static_cast<uint64_t>(
      static_cast<double>(quota_[tenant]) * config_.fill_margin);
  return quota_[tenant] - std::min(quota_[tenant], margin);
}

uint64_t FairSharePolicy::EndpointCostOf(PageId unit, TimeNs now) const {
  if (!endpoint_aware_active_) return 1;
  const uint32_t endpoint = memory().EndpointOf(unit);
  return static_cast<uint64_t>(context().perf->EndpointIdleLatency(endpoint)) +
         static_cast<uint64_t>(context().perf->EndpointBacklog(endpoint, now));
}

void FairSharePolicy::DemoteToTarget(uint32_t t, uint64_t target,
                                     TimeNs now, MigrationReason reason) {
  const uint64_t fast = fast_units(t);
  if (fast <= target) return;
  const uint64_t excess = std::min(fast - target, config_.max_enforce_batch);

  // Find the tenant's fast-resident units (the pagemap walk every
  // watermark demoter performs); the filler and the base policy bring
  // the hot subset back within quota.
  const PageRange range = directory_.regions[t].UnitRange(context().mode);
  victims_.clear();
  memory().ScanResident(range.begin, range.size(), Tier::kFast,
                        [this](PageId unit) {
                          sink().Touch(kSharePagemapBase +
                                       (unit / 8) * kCacheLineSize);
                          victims_.push_back(unit);
                        });
  const uint64_t take = std::min<uint64_t>(excess, victims_.size());
  if (take == 0) return;
  if (take < victims_.size()) {
    // Coldest first, by the base policy's own hotness estimate (ties in
    // address order, so the choice is deterministic). Demoting in plain
    // address order would evict the hot pages whenever they sit at the
    // scanned end — the base policy promotes them right back, and the
    // swap repeats every enforcement pass (rotation churn).
    victim_rank_.clear();
    victim_rank_.reserve(victims_.size());
    for (const PageId unit : victims_) {
      const uint64_t hotness = base_->HotnessOf(unit);
      // Endpoint-aware: hotness stays the primary key (demoting a
      // strictly hotter unit to spare a colder one always loses more
      // hits than any endpoint gap saves), with the cost of the
      // endpoint the unit would land on (idle latency + backlog) as
      // the tie-breaker — among equally-hot units, the one bound for a
      // cheap device leaves first and the one bound for a congested or
      // distant one is the last out of the fast tier. Hotness is
      // bucketed coarsely, so ties are the common case and the
      // steering bite is real. Blind mode keeps the exact legacy
      // hotness key.
      victim_rank_.emplace_back(
          endpoint_aware_active_
              ? (hotness << 16) +
                    std::min<uint64_t>(EndpointCostOf(unit, now), 0xffff)
              : hotness,
          unit);
    }
    // Only the coldest `take` need ordering; the rest stay resident.
    std::partial_sort(victim_rank_.begin(), victim_rank_.begin() + take,
                      victim_rank_.end());
    victims_.clear();
    for (uint64_t i = 0; i < take; ++i) {
      victims_.push_back(victim_rank_[i].second);
    }
  }
  migration().Demote(std::span<const PageId>(victims_).first(take), now,
                     reason);
  enforced_demotions_[t] += fast - fast_units(t);
}

void FairSharePolicy::EnforceQuotas(TimeNs now) {
  // Only active tenants can sit over quota: pending/departed tenants
  // hold no fast units (their drain released everything), and draining
  // tenants are reclaimed by DrainDeparting at the paced release_batch
  // rate, not by enforcement-sized bites.
  enforce_tenant_visits_ += active_.size();
  for (const uint32_t t : active_) {
    DemoteToTarget(t, quota_[t], now, MigrationReason::kQuotaEnforce);
  }
}

TimeNs FairSharePolicy::GatedPromote(std::span<const PageId> pages,
                                     TimeNs now, MigrationReason reason) {
  admitted_.clear();
  batch_seen_.clear();
  std::fill(batch_admits_.begin(), batch_admits_.end(), 0);

  // Endpoint-aware: when the quota truncates this batch, which pages
  // get admitted is decided by batch order — so order the batch by
  // home-endpoint cost, most expensive device first. Every page in a
  // promotion batch already cleared the base policy's hotness bar, so
  // within the batch the endpoint gap is the dominant term; the sort
  // is stable, keeping the base policy's (hotness-descending) order
  // within each cost class. Blind mode admits in batch order exactly
  // as before.
  std::span<const PageId> ordered = pages;
  if (endpoint_aware_active_ && !pages.empty()) {
    if (DecisionAudit* audit = migration().audit()) {
      audit->RecordEndpointReorder();
    }
  }
  if (endpoint_aware_active_) {
    admit_order_.clear();
    admit_order_.reserve(pages.size());
    for (const PageId page : pages) {
      admit_order_.emplace_back(EndpointCostOf(page, now), page);
    }
    std::stable_sort(admit_order_.begin(), admit_order_.end(),
                     [](const std::pair<uint64_t, PageId>& a,
                        const std::pair<uint64_t, PageId>& b) {
                       return a.first > b.first;
                     });
    admit_pages_.clear();
    admit_pages_.reserve(admit_order_.size());
    for (const auto& [cost, page] : admit_order_) {
      admit_pages_.push_back(page);
    }
    ordered = admit_pages_;
  }

  uint64_t batch_gated = 0;
  for (const PageId page : ordered) {
    // Dedup within the batch: a repeated page would be a no-op for the
    // engine but would be charged against headroom twice below.
    if (!batch_seen_.insert(page).second) continue;
    // A page already fast-resident needs no promotion: drop it before
    // the headroom check, so a base policy re-promoting its (correctly
    // placed) hot set is neither charged nor miscounted as gated.
    const bool resident = memory().IsResident(page);
    if (resident && memory().TierOf(page) == Tier::kFast) continue;
    const uint32_t t = memory().RegionOf(page);
    // A non-resident page already carrying a durable charge is staged:
    // re-admitting it would double-charge one future landing.
    if (!resident && pending_pages_[t].count(page) > 0) continue;
    sink().Touch(kQuotaTableBase + (t / 2) * kCacheLineSize);
    if (fast_units(t) + pending_pages_[t].size() + batch_admits_[t] >=
        quota_[t]) {
      ++gated_promotions_[t];
      ++batch_gated;
      continue;
    }
    // Charge every admitted page — each could end up fast-resident:
    // slow-resident pages the engine will move, and non-resident pages
    // whose first touch lands in the fast tier right after admission
    // (tenant arrivals). Charging only the slow ones would let a mixed
    // batch reserve no headroom for the rest and push the tenant past
    // quota.
    admitted_.push_back(page);
    ++batch_admits_[t];
  }
  if (batch_gated > 0) {
    if (DecisionAudit* audit = migration().audit()) {
      audit->RecordQuotaTruncation(batch_gated);
    }
  }
  // An entirely gated batch issues no syscall at all.
  if (admitted_.empty()) return 0;

  const TimeNs cost = migration().Promote(admitted_, now, reason);
  for (const PageId page : admitted_) {
    if (memory().IsResident(page)) continue;
    // The engine cannot move a page that does not exist yet; the
    // admission still staged a future fast first-touch landing. Charge
    // it durably — the page holds headroom until OnAccess sees its
    // first touch — so a base policy re-promoting the same untouched
    // region across batches cannot stage more landings than one batch
    // of headroom.
    pending_pages_[memory().RegionOf(page)].insert(page);
  }
  return cost;
}

void FairSharePolicy::FillQuotas(TimeNs now) {
  if (!config_.fill_to_quota) return;
  uint64_t free_fast = memory().FreePages(Tier::kFast);
  // Only active tenants accumulate candidates (OnSample feeds them from
  // the access stream); a departed tenant's leftovers are cleared at
  // release, so the fill pass never scans the fleet.
  fill_tenant_visits_ += active_.size();
  for (const uint32_t t : active_) {
    std::vector<PageId>& candidates = candidates_[t];
    if (candidates.empty()) continue;
    // The filler stops short of the quota: the reserved margin belongs
    // to the base policy, whose frequency threshold picks better pages
    // than a one-window sample count.
    const uint64_t fill_limit = FillLimit(t);
    const uint64_t fast = fast_units(t);
    const uint64_t headroom = fast < fill_limit ? fill_limit - fast : 0;
    if (headroom == 0) {
      // At or over the fill limit: candidates are unusable, drop them.
      candidates.clear();
      continue;
    }
    if (free_fast == 0) continue;  // Keep candidates for the next tick.

    // Rank this window's candidates by how often they were sampled (the
    // within-window frequency signal), hottest first; ties break on the
    // lower page id so the order is deterministic.
    std::sort(candidates.begin(), candidates.end());
    std::vector<std::pair<uint64_t, PageId>> ranked;
    for (size_t i = 0; i < candidates.size();) {
      size_t j = i;
      while (j < candidates.size() && candidates[j] == candidates[i]) ++j;
      if (memory().IsResident(candidates[i]) &&
          memory().TierOf(candidates[i]) == Tier::kSlow) {
        // Endpoint-aware: sample count stays the primary key, with the
        // cost of the endpoint the unit currently lives on as the
        // tie-breaker, so equally-sampled units are promoted off the
        // expensive device first (that is where each avoided slow
        // access buys the most latency). Blind mode ranks by raw count
        // exactly as before.
        const uint64_t count = j - i;
        ranked.emplace_back(
            endpoint_aware_active_
                ? (count << 16) + std::min<uint64_t>(
                                      EndpointCostOf(candidates[i], now),
                                      0xffff)
                : count,
            candidates[i]);
      }
      i = j;
    }
    candidates.clear();
    std::sort(ranked.begin(), ranked.end(),
              [](const std::pair<uint64_t, PageId>& a,
                 const std::pair<uint64_t, PageId>& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    const uint64_t take =
        std::min<uint64_t>({headroom, free_fast, ranked.size()});
    if (take == 0) continue;
    victims_.clear();  // Reused as the promotion batch here.
    for (uint64_t i = 0; i < take; ++i) victims_.push_back(ranked[i].second);

    GatedPromote(victims_, now, MigrationReason::kQuotaFill);
    const uint64_t promoted = fast_units(t) - fast;
    fill_promotions_[t] += promoted;
    free_fast -= std::min(free_fast, promoted);
  }
}

void FairSharePolicy::OnAccess(PageId unit, const TouchResult& touch,
                               TimeNs now) {
  if (touch.first_touch) {
    // If this unit carried a durable gate charge, the landing it
    // reserved headroom for has happened (or, when the touch landed
    // slow, will never consume fast headroom): release it. First
    // touches of uncharged units leave the staged charges alone.
    std::unordered_set<PageId>& pending =
        pending_pages_[memory().RegionOf(unit)];
    if (!pending.empty()) pending.erase(unit);
  }
  base_->OnAccess(unit, touch, now);
}

void FairSharePolicy::OnSample(const SampleRecord& sample) {
  const uint32_t t = memory().RegionOf(sample.page);
  if (sample.tier == Tier::kFast) {
    ++window_fast_samples_[t];
  } else {
    ++window_slow_samples_[t];
  }
  sink().Touch(kQuotaTableBase + (t / 2) * kCacheLineSize);
  if (!ghost_.empty() && churn_state_[t] == kChurnActive) {
    // Shadow-sample the access into the tenant's ghost MRC estimate.
    // Under SHARDS sampling most units are rejected by the spatial hash
    // before touching any counter — those updates cost no metadata
    // traffic, which is the point of sampling.
    const PageRange range =
        directory_.regions[t].UnitRange(context().mode);
    const uint64_t local = sample.page - range.begin;
    const int64_t slot = ghost_[t].Increment(local);
    ++shadow_samples_[t];
    if (slot >= 0) {
      sink().Touch(kGhostTableBase + t * kGhostTenantStride +
                   ghost_[t].CacheLineOfSlot(static_cast<uint64_t>(slot)) *
                       kCacheLineSize);
    }
  }
  if (sample.tier == Tier::kSlow &&
      candidates_[t].size() < config_.candidate_buffer) {
    candidates_[t].push_back(sample.page);
    sink().Touch(kQuotaTableBase +
                 (64 + t * config_.candidate_buffer / 8 +
                  (candidates_[t].size() - 1) / 8) *
                     kCacheLineSize);
  }
  base_->OnSample(sample);
}

void FairSharePolicy::Tick(TimeNs now) {
  ApplyChurn(now);
  DrainDeparting(now);
  if (config_.rebalance) {
    while (now >= next_rebalance_ns_) {
      Rebalance(next_rebalance_ns_);
      next_rebalance_ns_ += config_.rebalance_interval_ns;
      // Ticks normally arrive well inside one rebalance interval; a
      // clock jump across many intervals (an idle churn gap) resyncs
      // the grid instead of replaying one rebalance per missed window
      // (every window in the jump was empty anyway).
      if (now >= next_rebalance_ns_ + config_.rebalance_interval_ns) {
        const TimeNs missed =
            (now - next_rebalance_ns_) / config_.rebalance_interval_ns;
        next_rebalance_ns_ += missed * config_.rebalance_interval_ns;
      }
    }
  }
  EnforceQuotas(now);
  FillQuotas(now);
  base_->Tick(now);
}

size_t FairSharePolicy::MetadataBytes() const {
  // Quota table (ten 8 B fields + churn state per tenant), the
  // per-tenant fill candidate buffers, the in-flight durable gate
  // charges, and — in marginal mode — the ghost MRC counter arrays.
  size_t ghost_bytes = 0;
  for (const GhostMrc& ghost : ghost_) ghost_bytes += ghost.memory_bytes();
  size_t pending_bytes = 0;
  for (const auto& pending : pending_pages_) {
    pending_bytes += pending.size() * sizeof(PageId);
  }
  return base_->MetadataBytes() +
         directory_.regions.size() * (10 + config_.candidate_buffer) * 8 +
         pending_bytes + ghost_bytes;
}

bool FairSharePolicy::GetTenantQuotaStats(uint32_t tenant,
                                          TenantQuotaStats* out) const {
  if (tenant >= quota_.size()) return false;
  out->quota_units = quota_[tenant];
  out->shadow_samples = shadow_samples_[tenant];
  out->marginal_utility = marginal_utility_[tenant];
  out->pending_first_touch = pending_pages_[tenant].size();
  return true;
}

}  // namespace hybridtier
