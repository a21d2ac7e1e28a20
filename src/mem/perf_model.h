#ifndef HYBRIDTIER_MEM_PERF_MODEL_H_
#define HYBRIDTIER_MEM_PERF_MODEL_H_

/**
 * @file
 * Memory-system timing model.
 *
 * The fast tier is a single channel server; the slow tier is a set of
 * CXL endpoints, each its own channel server, optionally behind
 * switches whose uplinks are shared channels (see mem/topology.h). An
 * access or migration transfer occupies its channel(s) for
 * `bytes / bandwidth` of virtual time, and an access arriving while a
 * channel is busy queues behind it. This reproduces the first-order
 * effects the paper's results depend on:
 *  - slow-tier accesses cost ~50-100 ns more than fast-tier accesses,
 *  - migrations consume bandwidth that delays demand accesses, and
 *  - with several endpoints, congestion is per-device: traffic to one
 *    expander does not delay accesses served by another unless they
 *    share a saturated switch uplink.
 *
 * The configured `threads` factor inflates per-access channel occupancy
 * to approximate the paper's 16 application threads sharing the channel
 * while the simulator models a single serialized access stream.
 *
 * The model is built from the fast tier's `TierConfig` and a
 * `Topology`; the paper's single emulated CXL device is
 * `DefaultTopology()` (`cxl:(1)`). Two queue models exist: by default
 * a saturated channel's backlog grows without bound (only the delay an
 * access pays is capped); `BoundQueue()` clamps the backlog too, and
 * fault runs use it.
 *
 * **Decomposition contract** (relied on by `obs/attribution.h` and the
 * per-endpoint queue-delay histograms): every demand-access latency
 * this model returns is exactly `idle latency + queue delay`, both
 * integer ns, so observers recover the queue component with the
 * subtraction `latency - FastIdleLatency()` (fast) or
 * `latency - EndpointIdleLatency(endpoint)` (slow) with no remainder.
 * Any new latency term added here must either fold into one of those
 * two parts or get its own `LatencyComponent`, or the accounting
 * identity test (`Σ components == Σ op latency`, EXPECT_EQ) fails.
 */

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"
#include "mem/tier.h"
#include "mem/topology.h"

namespace hybridtier {

/**
 * Application-visible stall per migration batch: unmapping pages for
 * migration sends TLB-shootdown IPIs to every core running the process,
 * so each move_pages call stalls the app briefly. This is what makes
 * per-page migrators (ARC/TwoQ, fault-time promotion) pay for their
 * lenient policies while batched systems amortize it. Charged by the
 * simulation loop, not by `PerfModel`.
 */
constexpr TimeNs kTlbBatchStallNs = 2000;

/** Additional app-visible stall per migrated page (shootdown + minor
 *  fault on next touch). */
constexpr TimeNs kTlbPageStallNs = 150;

/**
 * Latency charged to a demand access aimed at a **down** endpoint
 * (fault injection, see fault/fault_runtime.h): the time for the fabric
 * to report the poisoned read and the kernel to field it. A run
 * constant (no queueing term) so the attribution identity stays exact —
 * the whole stall lands on `LatencyComponent::kFaultStall`.
 */
constexpr TimeNs kFaultStallNs = 2500;

/** The timing model's settable knobs (tests vary both). */
struct PerfModelConfig {
  uint32_t threads = 16;               //!< Modeled application threads.
  double max_queue_delay_ns = 2000.0;  //!< Cap on queueing delay per access.
};

/** Channel-occupancy timing model over the fast tier + CXL endpoints. */
class PerfModel {
 public:
  /** The fast tier is `fast`'s channel; the slow tier is `topology`'s
   *  device tree. */
  PerfModel(const PerfModelConfig& config, const TierConfig& fast,
            const Topology& topology);

  /**
   * Returns the latency of a demand access of one cache line served by
   * `tier` (endpoint `endpoint` when slow) at virtual time `now`,
   * including any queueing delay, and occupies the channel(s)
   * accordingly. An access through a switch occupies both the endpoint
   * port and the shared uplink, and queues behind whichever is more
   * backlogged.
   *
   * Inlined with the per-access channel occupancy precomputed at
   * construction (its operands — line size, thread factor, channel
   * bandwidth — are run constants), so the hot loop pays no floating
   * division.
   */
  TimeNs MemoryAccess(Tier tier, uint32_t endpoint, TimeNs now) {
    if (tier == Tier::kFast) {
      TimeNs queue_delay = 0;
      if (fast_.busy_until > now) {
        queue_delay = std::min<TimeNs>(fast_.busy_until - now,
                                       max_queue_delay_ns_);
      }
      Advance(&fast_.busy_until, fast_.access_service, now);
      fast_.bytes += access_bytes_;
      ++fast_.accesses;
      return fast_idle_latency_ns_ + queue_delay;
    }
    Endpoint& e = endpoints_[endpoint];
    if (e.down) [[unlikely]] {
      // The device is gone: the access faults instead of being served.
      // No channel occupancy, no queueing — a constant so attribution
      // can charge the whole latency to kFaultStall exactly. Dead
      // branch without fault injection, so healthy runs are untouched.
      ++e.stalled_accesses;
      return kFaultStallNs;
    }
    TimeNs backlog = e.busy_until > now ? e.busy_until - now : 0;
    if (e.link >= 0) [[unlikely]] {
      Channel& link = links_[static_cast<size_t>(e.link)];
      if (link.busy_until > now) {
        backlog = std::max(backlog, link.busy_until - now);
      }
      Advance(&link.busy_until, link.access_service, now);
    }
    const TimeNs queue_delay =
        std::min<TimeNs>(backlog, max_queue_delay_ns_);
    Advance(&e.busy_until, e.access_service, now);
    e.bytes += access_bytes_;
    ++e.accesses;
    return e.idle_latency_ns + queue_delay;
  }

  /**
   * Bulk transfer of `bytes` on one slow endpoint's port (and its
   * switch link) starting at `now`. Returns the transfer duration.
   */
  TimeNs OccupyEndpoint(uint32_t endpoint, uint64_t bytes, TimeNs now);

  /**
   * Full cost of one migration batch at time `now` in which
   * `pages_per_endpoint[i]` pages of `page_bytes` each move between the
   * fast tier and endpoint `i`: syscall overhead + per-page kernel
   * cost + the copy. The fast channel carries the total; each endpoint
   * carries its own share; the copy phase ends when the slowest leg
   * finishes.
   */
  TimeNs MigrationCost(std::span<const uint64_t> pages_per_endpoint,
                       uint64_t page_bytes, TimeNs now);

  /** Service latency of an L1 hit. */
  TimeNs L1Latency() const { return kL1LatencyNs; }

  /** Service latency of an LLC hit. */
  TimeNs LlcLatency() const { return kLlcLatencyNs; }

  /** Cost of taking a hint fault (AutoNUMA/TPP promotion path). */
  TimeNs HintFaultLatency() const { return kHintFaultNs; }

  /** Idle (unloaded) latency of the fast tier. */
  TimeNs FastIdleLatency() const { return fast_idle_latency_ns_; }

  /** Cumulative bytes transferred on `tier` (slow = all endpoints). */
  uint64_t BytesTransferred(Tier tier) const {
    if (tier == Tier::kFast) return fast_.bytes;
    uint64_t total = 0;
    for (const Endpoint& e : endpoints_) total += e.bytes;
    return total;
  }

  /** Number of slow-tier endpoints. */
  uint32_t EndpointCount() const {
    return static_cast<uint32_t>(endpoints_.size());
  }

  /** Idle latency of slow endpoint `endpoint`. */
  TimeNs EndpointIdleLatency(uint32_t endpoint) const {
    return endpoints_[endpoint].idle_latency_ns;
  }

  /** Cumulative bytes transferred through endpoint `endpoint`. */
  uint64_t EndpointBytes(uint32_t endpoint) const {
    return endpoints_[endpoint].bytes;
  }

  /** Demand accesses served by endpoint `endpoint`. */
  uint64_t EndpointAccesses(uint32_t endpoint) const {
    return endpoints_[endpoint].accesses;
  }

  /**
   * Backlog an access to `endpoint` would queue behind at `now`, capped
   * at the configured queue-delay cap: the max of the endpoint port's
   * and its switch uplink's busy horizon. Read-only — placement
   * policies use `EndpointIdleLatency + EndpointBacklog` as the current
   * cost of landing traffic on the endpoint.
   */
  TimeNs EndpointBacklog(uint32_t endpoint, TimeNs now) const {
    const Endpoint& e = endpoints_[endpoint];
    TimeNs backlog = e.busy_until > now ? e.busy_until - now : 0;
    if (e.link >= 0) {
      const Channel& link = links_[static_cast<size_t>(e.link)];
      if (link.busy_until > now) {
        backlog = std::max(backlog, link.busy_until - now);
      }
    }
    return std::min<TimeNs>(backlog, max_queue_delay_ns_);
  }

  // --- Fault injection (fault/fault_runtime.h drives these) -----------

  /**
   * Marks `endpoint` down/up. While down, demand accesses return
   * `kFaultStallNs` without touching any channel, and
   * OccupyEndpoint still works (evacuation reads the dying device).
   * This is the one copy of endpoint health: the migration engine and
   * the fair-share wrapper ask `EndpointDown`/`AnyEndpointDown`.
   */
  void SetEndpointDown(uint32_t endpoint, bool down) {
    Endpoint& e = endpoints_[endpoint];
    if (e.down == down) return;
    e.down = down;
    if (down) {
      ++down_endpoints_;
    } else {
      --down_endpoints_;
    }
  }

  /**
   * Applies degrade `factor` to `endpoint`: idle latency is multiplied
   * and bandwidth divided by it, relative to the endpoint's healthy
   * baseline (so factors replace, not compound — pass 1.0 to restore).
   * The per-access occupancy is recomputed from the new bandwidth.
   */
  void SetEndpointDegrade(uint32_t endpoint, double factor);

  /** True while `endpoint` is marked down. */
  bool EndpointDown(uint32_t endpoint) const {
    return endpoints_[endpoint].down;
  }

  /** True while any endpoint is marked down (O(1): a kept count). */
  bool AnyEndpointDown() const { return down_endpoints_ > 0; }

  /** Demand accesses rejected by `endpoint` while it was down. */
  uint64_t EndpointStalledAccesses(uint32_t endpoint) const {
    return endpoints_[endpoint].stalled_accesses;
  }

  /**
   * Switches to the bounded queue model: channel backlog (`busy_until`)
   * is clamped at `max_queue_delay_ns` too, not just the delay an
   * access reports. The default (unbounded) model truncates only what
   * an access *pays* while a saturated channel's busy horizon keeps
   * growing — backlog no access ever observes beyond the cap, and
   * which never drains. Bounded, the backlog beyond the cap is shed
   * (the excess models requests the real fabric would have
   * back-pressured at the requester). `Simulation` bounds the queue
   * for every run with a fault schedule, where an unbounded backlog
   * across an outage would model infinite recovery. Fault-free runs
   * keep the unbounded model: fig_topology's asymmetric-layout gate
   * (endpoint-aware mean latency must beat blind) and fig_attribution's
   * table depend on it. Bounding every run (re-checked at --jobs 4 on a
   * 4-core x86-64 host) fails that gate, aware 622.66 vs blind 617.74
   * ns mean; moves fig12_hugepage, fig13's huge-page table,
   * fig_attribution's cdn-asym row and the huge-page golden cells; and
   * leaves every other figure CSV and the repository benchmark's
   * modeled metrics (cdn-hybridtier, bfs-tpp) bit-identical. Which
   * model should be the only one is an open modeling decision, not a
   * fix.
   */
  void BoundQueue() { bounded_queue_ = true; }

  /** True once BoundQueue() was called. */
  bool queue_bounded() const { return bounded_queue_; }

  /** The slow-tier device tree in use. */
  const Topology& topology() const { return topology_; }

 private:
  static constexpr TimeNs kL1LatencyNs = 1;     // L1 hit service time.
  static constexpr TimeNs kLlcLatencyNs = 12;   // LLC hit service time.
  static constexpr TimeNs kHintFaultNs = 1500;  // Minor/hint fault cost.

  /** One shared channel (the fast tier or a switch uplink). */
  struct Channel {
    TimeNs busy_until = 0;
    TimeNs access_service = 0;  //!< Occupancy of one demand access.
    uint64_t bytes = 0;
    uint64_t accesses = 0;
  };

  /** One CXL endpoint's port channel + static properties. */
  struct Endpoint {
    TimeNs busy_until = 0;
    TimeNs access_service = 0;
    TimeNs idle_latency_ns = 0;
    double bandwidth_gbps = 0.0;
    int32_t link = -1;  //!< Index into links_, or -1 (direct).
    uint64_t bytes = 0;
    uint64_t accesses = 0;
    // Fault-injection state: healthy baselines + current health flags.
    // `down`/degrade are only ever set by a fault runtime; without one
    // the extra fields are dead weight off the hot path.
    TimeNs base_idle_latency_ns = 0;
    double base_bandwidth_gbps = 0.0;
    bool down = false;
    uint64_t stalled_accesses = 0;
  };

  /**
   * Advances a channel's busy horizon by `duration` of occupancy
   * starting at `now`. With a bounded queue, backlog beyond the
   * queue-delay cap is shed first, so the horizon can never run away
   * from the clock by more than cap + the new transfer.
   */
  void Advance(TimeNs* busy_until, TimeNs duration, TimeNs now) {
    TimeNs base = std::max(*busy_until, now);
    if (bounded_queue_ && base > now + max_queue_delay_ns_) {
      base = now + max_queue_delay_ns_;
    }
    *busy_until = base + duration;
  }

  /** ns a channel of `gbps` is busy transferring `bytes`. */
  static TimeNs TransferTime(double gbps, uint64_t bytes);

  /** Bulk transfer of `bytes` on the fast channel; returns duration. */
  TimeNs OccupyFast(uint64_t bytes, TimeNs now);

  Topology topology_;
  TimeNs fast_idle_latency_ns_ = 0;
  double fast_bandwidth_gbps_ = 0.0;
  Channel fast_;
  std::vector<Endpoint> endpoints_;
  std::vector<Channel> links_;  //!< One per topology switch.
  // Hot-path constants derived from the config at construction.
  uint64_t access_bytes_ = 0;  //!< Line * thread factor.
  TimeNs max_queue_delay_ns_ = 0;
  bool bounded_queue_ = false;
  uint32_t down_endpoints_ = 0;  //!< Endpoints marked down right now.
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_MEM_PERF_MODEL_H_
