#ifndef HYBRIDTIER_OBS_ATTRIBUTION_H_
#define HYBRIDTIER_OBS_ATTRIBUTION_H_

/**
 * @file
 * Exact latency decomposition of every modeled nanosecond.
 *
 * A `LatencyAttribution` attached to a simulation splits each op's
 * modeled latency into named components at the moment the engine
 * computes it — no re-derivation, no sampling, no rounding. The
 * components partition op latency exactly:
 *
 *   op_latency = op_overhead
 *              + Σ per-access (L1 hit | LLC hit
 *                              | fast idle + fast queue
 *                              | slow idle + slow queue   [per endpoint]
 *                              ) + hint faults
 *              + migration TLB stalls
 *
 * so the accounting identity
 *
 *   Σ components == Σ op latency       (to the nanosecond, EXPECT_EQ)
 *
 * holds globally, per tenant, and at every metric snapshot (interval
 * sums are differences of cumulative sums, so the cumulative identity
 * at each snapshot implies the per-interval one). The queue components
 * are recovered exactly as `modeled latency - idle latency`, the same
 * integer subtraction the per-endpoint queue-delay histograms already
 * use. Metadata (tiering) traffic is deliberately NOT a component: it
 * is modeled as cache pollution, never added to op latency, and is
 * reported alongside the decomposition instead (see README
 * "Diagnosis").
 *
 * Observation only: a null pointer is the disabled state, nothing here
 * feeds back into timing, and all counters are pure functions of the
 * simulated event stream (byte-identical across runs and `--jobs`).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace hybridtier {

/** Named slices of modeled op latency. Together they partition it. */
enum class LatencyComponent : uint8_t {
  kOpOverhead = 0,     //!< Fixed non-memory software work per op.
  kL1Hit,              //!< Accesses served by the L1.
  kLlcHit,             //!< Accesses served by the LLC.
  kFastIdle,           //!< Fast-tier fills: unloaded device latency.
  kFastQueue,          //!< Fast-tier fills: channel queueing delay.
  kSlowIdle,           //!< Slow-tier fills: per-endpoint idle latency.
  kSlowQueue,          //!< Slow-tier fills: port/uplink queue delay.
  kHintFault,          //!< Hint/minor page-fault charges.
  kMigrationStall,     //!< TLB-shootdown stalls from migration batches.
  kFaultStall,         //!< Demand accesses rejected by a down endpoint.
  kCount,
};

/** Stable short name ("fast_idle", "slow_queue", ...). */
const char* LatencyComponentName(LatencyComponent component);

/** Exact per-component / per-endpoint / per-tenant ns accounting. */
class LatencyAttribution {
 public:
  LatencyAttribution() = default;

  /** Sizes the per-endpoint and per-tenant tables; called by the
   *  simulation at construction. Resets all state. Single-tenant runs
   *  pass `tenant_count == 1` (everything lands on tenant 0). */
  void Configure(uint32_t endpoint_count, uint32_t tenant_count);

  // --- Hot-path feeds (call only when attached) -----------------------

  void AddOpOverhead(uint32_t tenant, TimeNs ns) {
    Add(tenant, LatencyComponent::kOpOverhead, ns);
  }

  void AddL1Hit(uint32_t tenant, TimeNs ns) {
    Add(tenant, LatencyComponent::kL1Hit, ns);
  }

  void AddLlcHit(uint32_t tenant, TimeNs ns) {
    Add(tenant, LatencyComponent::kLlcHit, ns);
  }

  void AddFastFill(uint32_t tenant, TimeNs idle_ns, TimeNs queue_ns) {
    Add(tenant, LatencyComponent::kFastIdle, idle_ns);
    Add(tenant, LatencyComponent::kFastQueue, queue_ns);
  }

  void AddSlowFill(uint32_t tenant, uint32_t endpoint, TimeNs idle_ns,
                   TimeNs queue_ns) {
    Add(tenant, LatencyComponent::kSlowIdle, idle_ns);
    Add(tenant, LatencyComponent::kSlowQueue, queue_ns);
    endpoint_idle_ns_[endpoint] += idle_ns;
    endpoint_queue_ns_[endpoint] += queue_ns;
  }

  void AddHintFault(uint32_t tenant, TimeNs ns) {
    Add(tenant, LatencyComponent::kHintFault, ns);
  }

  void AddMigrationStall(uint32_t tenant, TimeNs ns) {
    Add(tenant, LatencyComponent::kMigrationStall, ns);
  }

  void AddFaultStall(uint32_t tenant, TimeNs ns) {
    Add(tenant, LatencyComponent::kFaultStall, ns);
  }

  /** Closes one op: accumulates the identity's right-hand side. */
  void CloseOp(uint32_t tenant, TimeNs op_latency_ns) {
    op_latency_ns_ += op_latency_ns;
    tenant_op_latency_ns_[tenant] += op_latency_ns;
    ++ops_;
  }

  // --- Views ----------------------------------------------------------

  uint64_t component_ns(LatencyComponent component) const {
    return total_ns_[static_cast<size_t>(component)];
  }

  uint64_t tenant_component_ns(uint32_t tenant,
                               LatencyComponent component) const {
    return tenant_ns_[tenant * kComponents +
                      static_cast<size_t>(component)];
  }

  uint64_t endpoint_slow_idle_ns(uint32_t endpoint) const {
    return endpoint_idle_ns_[endpoint];
  }

  uint64_t endpoint_slow_queue_ns(uint32_t endpoint) const {
    return endpoint_queue_ns_[endpoint];
  }

  /** Σ op latency (the identity's right-hand side). */
  uint64_t op_latency_ns() const { return op_latency_ns_; }

  uint64_t tenant_op_latency_ns(uint32_t tenant) const {
    return tenant_op_latency_ns_[tenant];
  }

  /** Σ components, globally (the identity's left-hand side). */
  uint64_t ComponentSumNs() const;

  /** Σ components for one tenant. */
  uint64_t TenantComponentSumNs(uint32_t tenant) const;

  uint64_t ops() const { return ops_; }
  uint32_t endpoint_count() const {
    return static_cast<uint32_t>(endpoint_idle_ns_.size());
  }
  uint32_t tenant_count() const {
    return static_cast<uint32_t>(tenant_op_latency_ns_.size());
  }

  /** Multi-line component table (ns and share of total), for CLI. */
  std::string Report() const;

 private:
  static constexpr size_t kComponents =
      static_cast<size_t>(LatencyComponent::kCount);

  void Add(uint32_t tenant, LatencyComponent component, TimeNs ns) {
    const size_t c = static_cast<size_t>(component);
    total_ns_[c] += ns;
    tenant_ns_[tenant * kComponents + c] += ns;
  }

  uint64_t total_ns_[kComponents] = {};
  std::vector<uint64_t> tenant_ns_;  //!< tenant-major [tenant][component].
  std::vector<uint64_t> endpoint_idle_ns_;
  std::vector<uint64_t> endpoint_queue_ns_;
  std::vector<uint64_t> tenant_op_latency_ns_;
  uint64_t op_latency_ns_ = 0;
  uint64_t ops_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_OBS_ATTRIBUTION_H_
