#ifndef HYBRIDTIER_MULTITENANT_FAIR_SHARE_POLICY_H_
#define HYBRIDTIER_MULTITENANT_FAIR_SHARE_POLICY_H_

/**
 * @file
 * Fair-share quota wrapper around any tiering policy.
 *
 * On a shared fast tier, an unmanaged policy promotes whichever pages
 * look hottest globally — so one hot tenant crowds everyone else out.
 * `FairSharePolicy` decorates a base policy with per-tenant fast-tier
 * quotas:
 *
 *  - The base policy runs unmodified, but its migrations execute through
 *    a gate (a `MigrationEngine` decorator) that drops promotions for
 *    tenants already at quota. Batching, syscall costs, and stats of
 *    surviving pages are unchanged.
 *  - A maintenance tick demotes pages of tenants that sit over quota
 *    (first-touch allocation and quota shrinks put them there), coldest
 *    first by the base policy's `HotnessOf` (ties by address; in
 *    endpoint-aware mode, first by home-endpoint cost, cheap devices
 *    first). `SelectColdestUnits` reads hotness in chunks, cheapest
 *    cost class first, and stops as soon as the coldest excess is
 *    settled (enough units read 0, the least hotness); only otherwise
 *    does it read every fast unit and select by threshold. Either way
 *    nothing is sorted and a pass costs time linear in the tenant's
 *    fast units; the base policy re-promotes the hot subset within
 *    quota.
 *  - The same tick *fills* under-quota tenants: their recently sampled
 *    slow pages are promoted into the guaranteed headroom, hottest
 *    (most-sampled this window) first. This is what makes a quota a
 *    guarantee rather than just a cap — a base policy tuned for one
 *    global hot set would otherwise leave the freed capacity stranded
 *    while the gated tenant's pages keep crowding the top of its
 *    histogram.
 *  - Rebalance also *rotates* tenants whose placement is visibly bad
 *    (sampled fast fraction under one half): they are demoted to
 *    the fill limit so the filler and the base policy can swap better
 *    pages in. Without rotation a tenant pinned at quota with junk
 *    pages (e.g. leftover first-touch placement) could never improve
 *    its mix, and its measured hit density would starve it for good.
 *  - Quotas start weight-proportional ("static weights"). When rebalance
 *    is on, a periodic tick re-divides the tier by one of two demand
 *    signals (`FairShareConfig::quota_mode`):
 *      - *marginal* (default): each tenant keeps a shadow-sampled
 *        miss-ratio-curve estimate (`GhostMrc`, fed from the sample
 *        stream) answering "how many sampled hits per window would my
 *        q-th hottest unit contribute?"; the rebalancer water-fills
 *        capacity to whichever tenant has the highest weight-scaled
 *        marginal utility, above guaranteed `kMinShare` floors. A
 *        streaming tenant whose pages are touched once flattens its own
 *        curve immediately, so it cannot out-bid a hot set — the
 *        failure mode of per-unit densities.
 *      - *density*: the previous heuristic — sampled fast-tier hits per
 *        resident unit, EMA-smoothed and weight-scaled. Kept as the
 *        comparison baseline (`bench/fig_marginal_utility`).
 *  - A tenant arriving mid-run has no demand history; for the first
 *    rebalance window after its arrival its floor is raised to
 *    `arrival_grace` of its static share (and its demand EMA is seeded
 *    from the incumbents), so the post-arrival fairness dip lasts one
 *    window instead of a full EMA warm-up.
 *  - Tenants can *churn*: directory regions carry residency windows
 *    (possibly several — diurnal co-location), and the maintenance tick
 *    pops every edge the clock has crossed off the directory's
 *    `ResidencySchedule` (the one the mux and the simulation also
 *    walk). A departure starts a *paced* reclaim drain: up to
 *    `release_batch` of the tenant's fast-resident units are demoted
 *    per tick (the asynchronous reclaim writeback a real kernel
 *    performs — an exit never flushes gigabytes in one stop-the-world
 *    batch), and once the share is drained the whole region is
 *    released back to the free pools. The departing tenant loses its
 *    quota the moment it departs, so the drain pace bounds migration
 *    stall cost without delaying the survivors' re-division; benches
 *    can therefore separate release latency from stall cost. A tenant
 *    with more residency windows then waits for the next one and
 *    re-arrives (with the same arrival grace as a first arrival) into
 *    its freshly released region.
 *
 * The wrapper keeps no copy of memory-system state. A tenant's fast
 * occupancy is the memory's region tally (`TieredMemory::RegionResident`
 * — the simulation defines one accounting region per tenant, in
 * directory order, before Bind), the tenant of a unit is its region
 * (`TieredMemory::RegionOf`), and endpoint health is the timing model's
 * (`PerfModel::EndpointDown`). Pages moved from outside the policy
 * (fault evacuation, spill) are therefore counted the moment they move.
 * Reading these costs no modeled metadata traffic; the modeled quota
 * table (`MetadataBytes`, the quota-row line touches) stands for the
 * per-tenant counters a real implementation would keep.
 *
 * Everything is deterministic: quotas are integer units computed in a
 * fixed tenant order, so same config + seed replays bit-identically.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/units.h"
#include "fault/watchdog.h"
#include "multitenant/tenant.h"
#include "multitenant/tenant_stats.h"
#include "policies/policy.h"
#include "probstruct/ghost_mrc.h"

namespace hybridtier {

/** Demand signal the rebalance tick divides the tier by. */
enum class QuotaMode : uint8_t {
  kDensity = 0,   //!< Sampled fast-tier hits per resident unit (EMA).
  kMarginal = 1,  //!< Ghost-MRC marginal utility, water-filled.
};

/** Parses "density" / "marginal"; fatal on anything else. */
QuotaMode ParseQuotaMode(const std::string& name);

/** Display name of a quota mode. */
const char* QuotaModeName(QuotaMode mode);

/**
 * Virtual-time period of the rebalance tick. Sized to the simulator's
 * compressed timescales (policy tick 1 ms, stats 20 ms).
 */
constexpr TimeNs kRebalanceIntervalNs = 25 * kMillisecond;

/**
 * Fraction of a tenant's static (weight-proportional) quota that is
 * always guaranteed, regardless of demand.
 */
constexpr double kMinShare = 0.25;

/** Cap on one quota-enforcement demotion batch, in tracking units. */
constexpr uint64_t kMaxEnforceBatch = 4096;

/**
 * Knobs of the fair-share wrapper. The controller's design constants
 * (rebalance period, `kMinShare` floor, enforcement batch cap, fill
 * candidate buffer and margin, rotation threshold, ghost-MRC sample
 * budget) are named constants, not fields.
 */
struct FairShareConfig {
  /** Re-divide quotas by recent hit rate; false = static weights only. */
  bool rebalance = true;
  /** Demand signal for the re-division. */
  QuotaMode quota_mode = QuotaMode::kMarginal;
  /** Promote under-quota tenants' sampled slow pages into their share. */
  bool fill_to_quota = true;
  /**
   * Fraction of a newly arrived tenant's static share guaranteed as its
   * floor for the first rebalance window after arrival, while its
   * demand estimate warms up. 0 disables the grace (the tenant starts
   * from the `kMinShare` floor and earns quota only as samples arrive).
   */
  double arrival_grace = 1.0;
  /**
   * Cap on the fast units demoted per tick while draining a departed
   * tenant's share (paced reclaim writeback); the region is released
   * once the drain finishes. Must be positive.
   */
  uint64_t release_batch = 4096;
  /**
   * Endpoint-aware placement: weigh hotness against the cost of the
   * slow-tier endpoint a unit is homed on (idle latency + current
   * capped backlog, read from the bound PerfModel). Victim selection
   * breaks hotness ties by demoting units bound for cheap endpoints
   * first — a hot unit homed on a distant or congested device is the
   * *last* to leave the fast tier — fill-to-quota promotes
   * equally-sampled units off expensive endpoints first, and
   * quota-truncated promotion batches admit the expensive-endpoint
   * pages first. No effect on single-endpoint layouts (every unit
   * costs the same), so the default two-tier behavior is unchanged.
   */
  bool endpoint_aware = false;
};

/**
 * Reads the hotness of `units` into `out` (same length), as
 * `TieringPolicy::HotnessOfEach` does.
 */
using HotnessReader =
    std::function<void(std::span<const PageId>, std::span<uint32_t>)>;

/** Units `SelectColdestUnits` passes to one `HotnessReader` call. */
constexpr size_t kHotnessReadChunk = 32;

/** Reusable buffers of `SelectColdestUnits`. */
struct ColdestSelectionScratch {
  /** Hotness read for each candidate, by position. */
  std::vector<uint32_t> hotness;
  /** Distinct endpoint costs, ascending: the cost classes. */
  std::vector<uint16_t> class_cost;
  /** Cost class of each endpoint. */
  std::vector<uint16_t> endpoint_class;
  /** Cost class of each candidate, by position. */
  std::vector<uint16_t> unit_class;
  /** Hotness values in the histogram's overflow bin. */
  std::vector<uint32_t> overflow;
  /** Units at the threshold hotness, per cost class. */
  std::vector<uint64_t> class_counts;
};

/**
 * Victim selection of the fair-share enforcement pass. Orders `units`
 * (ascending addresses) by the key (hotness, endpoint cost, unit) --
 * without `endpoint_cost`, by (hotness, unit) -- and keeps the first
 * `take` of that order at the front of `units`, in ascending address
 * order. Returns `take`.
 *
 * Hotness is read through `read`, `kHotnessReadChunk` units a call, in
 * the order of the key without hotness: cheapest cost class first (one
 * class when blind), ascending addresses within a class. Zero is the
 * least hotness, so once `take` units have read 0 they are exactly the
 * first `take` of the order and the walk stops, within one chunk of
 * the `take`-th zero. Otherwise every unit has been read once, and
 * threshold selection runs on the stored values: no pair is ranked,
 * the chosen set is every unit keyed below the `take`-th smallest key
 * K plus the lowest-address units keyed K. K's hotness comes from a
 * 64-bin histogram (values >= 63 share the last bin, resolved by
 * `nth_element` over that bin's values when K falls in it), K's cost
 * class from the per-class counts of the units at that hotness, and
 * one address-order pass then emits the set. Linear in `units.size()`
 * for any hotness range.
 *
 * @param units         candidate units, ascending; reordered in place.
 * @param read          hotness reader; never asked for a unit twice.
 * @param endpoint_cost per-endpoint tie-break cost; empty = blind.
 * @param hdm           home-endpoint decode, read when `endpoint_cost`
 *                      is non-empty.
 * @param take          units to keep, at most `units.size()`.
 * @param scratch       reusable buffers.
 */
size_t SelectColdestUnits(std::span<PageId> units, const HotnessReader& read,
                          std::span<const uint16_t> endpoint_cost,
                          const HdmDecoder& hdm, uint64_t take,
                          ColdestSelectionScratch* scratch);

/** Per-tenant quota enforcement as a `TieringPolicy` decorator. */
class FairSharePolicy : public TieringPolicy,
                        public TenantQuotaStatsSource,
                        public InvariantSource {
 public:
  /**
   * @param base      wrapped policy (owned); decides *which* pages move.
   * @param directory tenant layout; must cover the run's address space.
   * @param config    wrapper knobs.
   */
  FairSharePolicy(std::unique_ptr<TieringPolicy> base,
                  TenantDirectory directory,
                  FairShareConfig config = FairShareConfig{});
  ~FairSharePolicy() override;

  void Bind(const PolicyContext& context) override;
  void OnAccess(PageId unit, const TouchResult& touch, TimeNs now) override;
  void OnSample(const SampleRecord& sample) override;
  void Tick(TimeNs now) override;
  size_t MetadataBytes() const override;
  const char* name() const override { return name_.c_str(); }

  /**
   * Fault transition (fault/fault_runtime.h): a down endpoint strands
   * its fast-resident homed units — they cannot be demoted back, so the
   * capacity the water-filler divides shrinks to the *effective* fast
   * capacity (total minus stranded units). Quotas are re-divided
   * immediately over that effective capacity, so tenants degrade
   * together instead of the next enforcement pass thrashing whoever
   * happens to sit over a suddenly-shrunk tier. Recovery restores the
   * capacity and the regular fill machinery re-admits the endpoint.
   */
  void OnEndpointHealth(uint32_t endpoint, EndpointHealth state,
                        TimeNs now) override;

  /** Occupancy is read from the memory, so there is nothing to
   *  invalidate here; the wrapped policy still hears of the move. */
  void OnExternalMigration(TimeNs now) override {
    base_->OnExternalMigration(now);
  }

  // InvariantSource: quota bounds for the watchdog (occupancy is the
  // region tallies, which the watchdog recounts itself).
  bool CheckInvariants(std::string* error) const override;

  /**
   * Inline: OnAccess releases a pending first-touch gate charge at the
   * instant of the charged unit's first touch, before any later access
   * of the same op can be gated against it, and the wrapped policy may
   * itself require inline delivery.
   */
  AccessInterest access_interest() const override {
    return AccessInterest::kInline;
  }

  /** The wrapped policy's estimate (victim ordering sees through us). */
  uint32_t HotnessOf(PageId unit) const override {
    return base_->HotnessOf(unit);
  }
  void HotnessOfEach(std::span<const PageId> units,
                     std::span<uint32_t> out) const override {
    base_->HotnessOfEach(units, out);
  }

  // TenantQuotaStatsSource:
  bool GetTenantQuotaStats(uint32_t tenant,
                           TenantQuotaStats* out) const override;

  /** Current fast-tier quota of `tenant`, in tracking units. */
  uint64_t quota_units(uint32_t tenant) const { return quota_[tenant]; }

  /** Fast-tier occupancy of `tenant`, in tracking units: the memory's
   *  region tally. */
  uint64_t fast_units(uint32_t tenant) const {
    return memory().RegionResident(tenant, Tier::kFast);
  }

  /** Promotions dropped at the gate because `tenant` was at quota. */
  uint64_t gated_promotions(uint32_t tenant) const {
    return gated_promotions_[tenant];
  }

  /** Demotions issued by quota enforcement for `tenant`. */
  uint64_t enforced_demotions(uint32_t tenant) const {
    return enforced_demotions_[tenant];
  }

  /** Fill-to-quota promotions issued for `tenant`. */
  uint64_t fill_promotions(uint32_t tenant) const {
    return fill_promotions_[tenant];
  }

  /** Pages released back to the free pools when `tenant` departed. */
  uint64_t released_units(uint32_t tenant) const {
    return released_units_[tenant];
  }

  /** Gate charges for admitted-but-not-yet-touched units of `tenant`. */
  uint64_t pending_first_touch(uint32_t tenant) const {
    return pending_pages_[tenant].size();
  }

  /**
   * Marginal utility (sampled hits/window of the next fast unit past the
   * current quota) computed for `tenant` at the last rebalance; 0 in
   * density mode.
   */
  double marginal_utility(uint32_t tenant) const {
    return marginal_utility_[tenant];
  }

  /** Samples fed to `tenant`'s ghost estimate since its last reset. */
  uint64_t shadow_samples(uint32_t tenant) const {
    return shadow_samples_[tenant];
  }

  /** SHARDS sampling shift of `tenant`'s ghost estimate (0 = exact). */
  uint32_t ghost_sample_shift(uint32_t tenant) const {
    return ghost_.empty() ? 0 : ghost_[tenant].sample_shift();
  }

  /** Tenants currently inside a residency window. */
  uint32_t active_tenants() const {
    return static_cast<uint32_t>(active_.size());
  }

  // O(active) work counters, for complexity guard tests: each counts
  // tenant visits (not wall time), so a test can assert the maintenance
  // paths scale with the *active* tenant count, not the fleet size.
  /** Residency-window edges popped off the churn schedule. */
  uint64_t churn_edge_visits() const { return churn_edge_visits_; }
  /** Tenants visited across all rebalance passes. */
  uint64_t rebalance_tenant_visits() const {
    return rebalance_tenant_visits_;
  }
  /** Tenants visited across all quota-enforcement passes. */
  uint64_t enforce_tenant_visits() const { return enforce_tenant_visits_; }
  /** Tenants visited across all fill-to-quota passes. */
  uint64_t fill_tenant_visits() const { return fill_tenant_visits_; }

  // Victim-selection work counters: host-independent measures of what
  // the coldest-first passes (enforcement and rotation) cost.
  /** Fast units ranked across all passes that had to choose victims. */
  uint64_t ranked_candidates() const { return ranked_candidates_; }
  /** Units whose hotness those passes read from the base policy. */
  uint64_t hotness_reads() const { return hotness_reads_; }

  /** True if `tenant`'s residency window was open at the last tick. */
  bool tenant_active(uint32_t tenant) const {
    return churn_state_[tenant] == kChurnActive;
  }

  /** True if `tenant` departed but its paced reclaim drain still runs. */
  bool tenant_draining(uint32_t tenant) const {
    return churn_state_[tenant] == kChurnDraining;
  }

  /** The wrapped policy. */
  const TieringPolicy& base() const { return *base_; }

 private:
  class QuotaGate;

  /** Where a tenant sits in its residency windows. */
  enum ChurnState : uint8_t {
    kChurnPending = 0,  //!< Next window's arrival not yet reached.
    kChurnActive = 1,   //!< Present: holds quota, counted in rebalance.
    kChurnDeparted = 2, //!< Every window closed: region released.
    kChurnDraining = 3, //!< Departed; paced reclaim still demoting.
  };

  /**
   * Applies arrival/departure window edges crossed by `now` and, when
   * any tenant changed state, re-divides quotas over the tenants now
   * active. Edges come off the residency schedule built at Bind, so a
   * tick inside a quiet stretch costs O(1) and a tick that crosses
   * edges costs O(edges crossed) — never O(fleet).
   */
  void ApplyChurn(TimeNs now);

  /**
   * Walks `tenant`'s residency windows forward to `now` (the per-edge
   * body of ApplyChurn): arrivals activate, departures start the paced
   * drain, and a drain overtaken by the next window is force-finished.
   * Returns true when the tenant's churn state changed.
   */
  bool AdvanceTenantWindows(uint32_t tenant, TimeNs now);

  // Dense active/draining sets: `active_` lists the tenant ids inside a
  // residency window, `active_index_[t]` is t's slot in it (kNoSlot when
  // absent); removal swaps with the back. Every maintenance pass
  // (rebalance, enforcement, fill, drain) walks these lists, so steady-
  // state work is O(active tenants), not O(fleet).
  void AddActive(uint32_t tenant);
  void RemoveActive(uint32_t tenant);
  void AddDraining(uint32_t tenant);
  void RemoveDraining(uint32_t tenant);

  /**
   * Paced departure reclaim: demotes up to `release_batch` fast units
   * of each draining tenant, and releases the region once drained. The
   * address-order scan resumes at a per-tenant cursor, so each pagemap
   * byte is visited once per pass, not once per tick. The cursor parks
   * on a unit homed on a down endpoint until the endpoint recovers.
   */
  void DrainDeparting(TimeNs now);

  /**
   * Flushes a draining tenant's remaining fast share in one batch and
   * releases the region now — used when the tenant's next residency
   * window opens before the paced drain finished, so a re-admission
   * never overlaps a half-released region. Units homed on a down
   * endpoint cannot be demoted and are released in place.
   */
  void ForceFinishDrain(uint32_t tenant, TimeNs now);

  /**
   * Frees a fully drained tenant's region, resets its demand state, and
   * advances it to its next residency window (or retires it for good).
   * `now` stamps the end of the drain-window trace span.
   */
  void FinishRelease(uint32_t tenant, TimeNs now);

  /** Weight-proportional quotas summing exactly to the fast capacity. */
  void ComputeStaticQuotas();

  /**
   * Fast capacity the quota divisions run over: the configured size
   * minus units stranded by down endpoints (fast-resident units homed
   * on a dead device cannot be demoted off the tier, so they are not
   * divisible). Equals `context().fast_capacity_units` whenever no
   * endpoint is down — the healthy path computes the identical quotas
   * it always did.
   */
  uint64_t EffectiveFastCapacity() const;

  /** True while `unit`'s home endpoint is down: the engine refuses to
   *  demote it. */
  bool HomeDown(PageId unit) const {
    const PerfModel& perf = *context().perf;
    return perf.AnyEndpointDown() &&
           perf.EndpointDown(memory().EndpointOf(unit));
  }

  /** Demand-driven re-division (density EMA or marginal utility). */
  void Rebalance(TimeNs now);

  /**
   * The guaranteed floor for `tenant` at a rebalance at `now`: the
   * `kMinShare` fraction of its static quota, raised to the arrival-grace
   * share while the tenant is inside its post-arrival grace window.
   */
  uint64_t RebalanceFloor(uint32_t tenant, TimeNs now) const;

  /** Density-EMA re-division (the original heuristic). */
  void RebalanceDensity(TimeNs now);

  /** Ghost-MRC marginal-utility water-filling re-division. */
  void RebalanceMarginal(TimeNs now);

  /** Fill-limit for `tenant`: its quota minus the reserved margin. */
  uint64_t FillLimit(uint32_t tenant) const;

  /**
   * Cost of landing slow-tier traffic on `endpoint` right now: idle
   * latency + capped backlog. Only the endpoint-aware rankings ask
   * (`endpoint_aware_active_`); blind mode ranks without it. A
   * simulator-internal read (like HotnessOf): no metadata traffic.
   */
  uint64_t EndpointCost(uint32_t endpoint, TimeNs now) const;

  /**
   * Fills `victims_` with the fast-resident units of `range`, ascending
   * (the pagemap walk every watermark demoter performs), and reports
   * one metadata touch per unit, folded per pagemap line.
   */
  void CollectFastUnits(const PageRange& range);

  /**
   * Demotes tenant `t` down to `target` fast units (one batch), stamped
   * with `reason` (enforcement vs. rotation). The batch is the coldest
   * excess by (hotness, endpoint cost, unit), chosen by
   * SelectColdestUnits in time linear in the tenant's fast units, which
   * reads the base policy's hotness only until the choice is settled;
   * it includes units pinned by a down endpoint, which the engine
   * refuses.
   */
  void DemoteToTarget(uint32_t t, uint64_t target, TimeNs now,
                      MigrationReason reason);

  /** Demotes over-quota tenants' pages down to their quotas. */
  void EnforceQuotas(TimeNs now);

  /** Promotes under-quota tenants' sampled slow pages into headroom. */
  void FillQuotas(TimeNs now);

  /** Gate path: promotion batch filtered by per-tenant headroom. The
   *  base policy's reason passes through to the executed batch. */
  TimeNs GatedPromote(std::span<const PageId> pages, TimeNs now,
                      MigrationReason reason);

  std::unique_ptr<TieringPolicy> base_;
  TenantDirectory directory_;
  FairShareConfig config_;
  std::string name_;

  std::unique_ptr<QuotaGate> gate_;
  /** endpoint_aware resolved against the bound context; false
   *  whenever awareness could change nothing (a single endpoint). */
  bool endpoint_aware_active_ = false;
  TimeNs next_rebalance_ns_ = 0;

  static constexpr uint32_t kNoSlot = 0xffffffffu;

  /** The directory's residency-window edges (built at Bind). */
  ResidencySchedule schedule_;

  // Dense membership sets (see AddActive above).
  std::vector<uint32_t> active_;
  std::vector<uint32_t> active_index_;
  std::vector<uint32_t> draining_;
  std::vector<uint32_t> draining_index_;

  // O(active) work counters (see the public accessors).
  uint64_t churn_edge_visits_ = 0;
  uint64_t rebalance_tenant_visits_ = 0;
  uint64_t enforce_tenant_visits_ = 0;
  uint64_t fill_tenant_visits_ = 0;
  uint64_t ranked_candidates_ = 0;
  uint64_t hotness_reads_ = 0;

  // Compact per-active-tenant scratch for the re-division calls
  // (avoids per-rebalance fleet-sized allocations).
  std::vector<double> scratch_demand_;
  std::vector<uint64_t> scratch_caps_;
  std::vector<uint64_t> scratch_floors_;
  std::vector<double> scratch_fraction_;

  // Per-tenant state, all indexed by tenant id.
  std::vector<uint64_t> quota_;         //!< Fast-tier quota, units.
  std::vector<uint64_t> static_quota_;  //!< Weight-proportional quota.
  std::vector<uint64_t> window_fast_samples_;  //!< Fast-tier samples.
  std::vector<uint64_t> window_slow_samples_;  //!< Slow-tier samples.
  std::vector<double> demand_ema_;  //!< Halving-EMA of hit density.
  std::vector<uint64_t> gated_promotions_;
  std::vector<uint64_t> enforced_demotions_;
  std::vector<uint64_t> fill_promotions_;
  std::vector<uint64_t> released_units_;  //!< Freed at departure.
  std::vector<uint8_t> churn_state_;      //!< ChurnState per tenant.
  std::vector<size_t> window_index_;      //!< Current residency window.
  std::vector<PageId> drain_cursor_;      //!< Paced-drain scan resume.
  std::vector<std::vector<PageId>> candidates_;  //!< Sampled slow pages.
  /** Durable gate charges: the admitted non-resident units whose first
   *  touch has not happened yet. Tracking the units themselves (not a
   *  bare counter) keeps the charge exact: only the charged unit's own
   *  first touch releases it, and re-admitting a still-untouched unit
   *  cannot double-charge. */
  std::vector<std::unordered_set<PageId>> pending_pages_;
  std::vector<GhostMrc> ghost_;  //!< Shadow MRC estimate (marginal mode).
  std::vector<uint64_t> shadow_samples_;   //!< Samples fed to ghost_.
  std::vector<double> marginal_utility_;   //!< At last rebalance.
  std::vector<TimeNs> grace_until_ns_;     //!< Arrival-grace deadline.

  // Trace emission (all inert when the bound context has no trace):
  // quota decisions land on a controller track, churn and per-tenant
  // quota awards on one track per tenant.
  TraceEmitter* trace_ = nullptr;
  TraceEmitter::TrackId controller_track_ = 0;
  std::vector<TraceEmitter::TrackId> tenant_track_;
  std::vector<TimeNs> drain_start_ns_;  //!< Departure time, per tenant.

  // Scratch (avoids per-batch allocation).
  std::vector<PageId> admitted_;
  std::vector<uint64_t> batch_admits_;
  std::vector<PageId> victims_;
  /** Per-endpoint victim tie-break cost, min(cost, 0xffff), for the
   *  current enforcement pass. */
  std::vector<uint16_t> victim_endpoint_cost_;
  ColdestSelectionScratch selection_scratch_;
  /** (cost, page) scratch for endpoint-aware admission ordering. */
  std::vector<std::pair<uint64_t, PageId>> admit_order_;
  /** Reordered promotion batch fed to the admission loop. */
  std::vector<PageId> admit_pages_;
  std::unordered_set<PageId> batch_seen_;  //!< In-batch dedup.
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_MULTITENANT_FAIR_SHARE_POLICY_H_
