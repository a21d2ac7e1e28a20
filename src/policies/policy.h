#ifndef HYBRIDTIER_POLICIES_POLICY_H_
#define HYBRIDTIER_POLICIES_POLICY_H_

/**
 * @file
 * Tiering-policy plug-in interface.
 *
 * The simulator owns the workload, the cache hierarchy, the tiered
 * memory, and migration cost accounting; a policy only *decides*. All
 * policies receive the same three signals the real systems get:
 *  - OnAccess / OnAccessBatch: the demand-access stream, carrying only
 *    the information a kernel would have (tier served, hint-fault
 *    outcome). Policies must not inspect access contents beyond this —
 *    recency baselines use the fault/accessed-bit information, sample
 *    baselines ignore it.
 *  - OnSample: the PEBS/IBS sample stream (page + tier + time).
 *  - Tick: periodic maintenance (cooling, scans, watermark demotion).
 * Policies execute decisions through the MigrationEngine in the bound
 * context and report every metadata cache line they touch through the
 * MetadataTrafficCounter so tiering cache overhead is measured, not
 * asserted.
 *
 * Access dispatch is tiered by `access_interest()`:
 *  - kNone: the policy does not observe the demand stream at all (the
 *    sample-driven designs: HybridTier, Memtis, ARC/TwoQ). The hot loop
 *    skips dispatch entirely — zero per-access policy cost.
 *  - kBatched: the policy wants the stream but tolerates end-of-op
 *    delivery; the simulator buffers TouchEvents and hands the whole op
 *    to OnAccessBatch in one (devirtualized-per-batch) call.
 *  - kInline: the policy mutates placement inside OnAccess (TPP and
 *    AutoNUMA promote at fault time), so later accesses of the same op
 *    must observe the migration; the simulator calls OnAccess once per
 *    access, immediately after the access is modeled.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"
#include "fault/health.h"
#include "mem/migration.h"
#include "mem/page.h"
#include "mem/tiered_memory.h"
#include "sampling/sample.h"

namespace hybridtier {

/**
 * Accumulates the cache-line addresses of tiering metadata accesses.
 *
 * Concrete and final: the legacy virtual `MetadataTrafficSink::Touch`
 * cost an indirect call per metadata line on the sample hot path. Lines
 * are now appended to a flat buffer (an inlined bounds-checked store)
 * and the simulator replays the buffer into the shared cache hierarchy
 * at the next flush point — in exactly the order they were reported, so
 * the modeled LLC sees the same access sequence as before.
 *
 * A touch of the same 64 B line as the previously recorded one only
 * adds to `repeats()`; `CacheHierarchy::ReplayTiering` counts those as
 * the tiering-L1 hits they are, without replaying them.
 *
 * When recording is off (overhead-free runs and unit tests that only
 * count traffic) lines are dropped and only the counter advances.
 */
class MetadataTrafficCounter {
 public:
  /** Records one tiering-owned access to the 64 B line at `line_addr`. */
  void Touch(uint64_t line_addr) {
    ++touches_;
    if (!recording_) return;
    const uint64_t line = line_addr / kCacheLineSize;
    if (line == last_line_) {
      ++repeats_;
      return;
    }
    last_line_ = line;
    lines_.push_back(line_addr);
  }

  /**
   * Records `n` tiering-owned accesses to the line at `line_addr` in a
   * row: the same touches(), lines() and repeats() as `n` Touch calls.
   */
  void TouchRepeated(uint64_t line_addr, uint64_t n) {
    if (n == 0) return;
    touches_ += n;
    if (!recording_) return;
    const uint64_t line = line_addr / kCacheLineSize;
    if (line != last_line_) {
      last_line_ = line;
      lines_.push_back(line_addr);
      --n;
    }
    repeats_ += n;
  }

  /** Buffer lines for replay (on) or count only (off). Default on. */
  void SetRecording(bool recording) { recording_ = recording; }

  /** Total Touch calls, recorded or not. */
  uint64_t touches() const { return touches_; }

  /** Buffered lines awaiting replay, in report order, each repeat of
   *  the line before it folded away. */
  const std::vector<uint64_t>& lines() const { return lines_; }

  /** Buffered touches folded into the entry before them. */
  uint64_t repeats() const { return repeats_; }

  /** True when no lines await replay. */
  bool empty() const { return lines_.empty(); }

  /** Drops buffered lines and repeats; capacity is kept so steady state
   *  is allocation-free. The touch counter is not reset. */
  void Clear() {
    lines_.clear();
    repeats_ = 0;
    last_line_ = kNoLine;
  }

 private:
  /** No line index reaches it (addresses are below 2^64). */
  static constexpr uint64_t kNoLine = UINT64_MAX;

  std::vector<uint64_t> lines_;
  uint64_t repeats_ = 0;
  uint64_t last_line_ = kNoLine;  //!< Line index of the last entry.
  uint64_t touches_ = 0;
  bool recording_ = true;
};

/** How a policy wants to observe the demand-access stream. */
enum class AccessInterest : uint8_t {
  kNone = 0,  //!< OnAccess is the inherited no-op; skip dispatch.
  kBatched,   //!< Deliver per op via OnAccessBatch (deferral-safe).
  kInline,    //!< Call OnAccess per access (placement feedback).
};

/** One executed demand access, as delivered to OnAccessBatch. */
struct TouchEvent {
  PageId unit = 0;
  TouchResult touch;
  TimeNs now = 0;  //!< Virtual time the access issued (pre-latency).
};

/** Everything a policy may interact with, bound once before the run. */
struct PolicyContext {
  TieredMemory* memory = nullptr;
  MigrationEngine* migration = nullptr;
  MetadataTrafficCounter* metadata_sink = nullptr;
  /**
   * Read-only timing-model view, for endpoint-aware placement: a
   * policy may weigh hotness against `EndpointIdleLatency` +
   * `EndpointBacklog` (distance + congestion). Both reads are pure
   * functions of the simulated stream, so consulting them keeps runs
   * deterministic. Null in minimal unit-test contexts.
   */
  const PerfModel* perf = nullptr;
  /**
   * Optional trace sink (null = tracing off). Policies that emit
   * decision events (quota rebalances, cooling) register their tracks
   * in Bind and guard every emission on this pointer; virtual-time
   * event content must stay a pure function of the simulated stream so
   * traces keep the engine's bit-identity guarantees.
   */
  TraceEmitter* trace = nullptr;
  PageMode mode = PageMode::kRegular;
  uint64_t footprint_units = 0;      //!< Address-space size in units.
  uint64_t fast_capacity_units = 0;  //!< Fast-tier size in units.
};

/** Abstract tiering policy. */
class TieringPolicy {
 public:
  virtual ~TieringPolicy() = default;

  /** Binds the runtime context; called once before the first event. */
  virtual void Bind(const PolicyContext& context) { context_ = context; }

  /**
   * How this policy consumes the demand stream. kNone promises the
   * policy leaves OnAccess at the inherited no-op; kBatched promises
   * OnAccess has no feedback into same-op observable state — no
   * migrations, no protection changes, and no metadata traffic (the
   * batch path replays buffered metadata lines after the op's app
   * accesses, so sink traffic from OnAccess would reach the shared LLC
   * at a different interleaving than per-access dispatch and break the
   * bit-identity guarantee). Policies that do any of those inside
   * OnAccess must return kInline — the default, so unknown subclasses
   * are called once per access, which is always safe.
   */
  virtual AccessInterest access_interest() const {
    return AccessInterest::kInline;
  }

  /**
   * Observes one demand access to `unit` at `now`. `touch` carries the
   * signals an OS would see (tier, first touch, hint fault + latency).
   */
  virtual void OnAccess(PageId unit, const TouchResult& touch, TimeNs now) {
    (void)unit;
    (void)touch;
    (void)now;
  }

  /**
   * Delivers one op's accesses in a single call — the batch fast path:
   * one virtual dispatch per op instead of one per access. Events carry
   * the same (unit, touch, now) triples OnAccess would have seen, in
   * issue order.
   */
  void OnAccessBatch(std::span<const TouchEvent> events) {
    if (!events.empty()) OnAccessBatchImpl(events);
  }

  /** Consumes one hardware access sample. */
  virtual void OnSample(const SampleRecord& sample) { (void)sample; }

  /** Periodic maintenance; called every simulator tick interval. */
  virtual void Tick(TimeNs now) { (void)now; }

  /**
   * Notifies the policy that slow endpoint `endpoint` changed health
   * (fault injection, fault/fault_runtime.h). Called at the tick
   * boundary where the transition takes effect, before the same tick's
   * Tick(). Policies that plan placement over capacity (the fair-share
   * water-filler) re-plan over *effective* capacity here; the default
   * ignores faults entirely — reactive policies just see the changed
   * latencies and fault stalls.
   */
  virtual void OnEndpointHealth(uint32_t endpoint, EndpointHealth state,
                                TimeNs now) {
    (void)endpoint;
    (void)state;
    (void)now;
  }

  /**
   * Notifies the policy that pages were migrated *outside* its own
   * decisions (fault evacuation batches issued by the fault runtime).
   * No policy in this tree keeps state it would invalidate: occupancy
   * is read from `TieredMemory`'s region tallies, which every move
   * updates. The hook stays as the seam for a policy that caches
   * placement: decorators forward it, and the repository benchmark's
   * timing decorators (perfbench/) override it. Default: nothing.
   */
  virtual void OnExternalMigration(TimeNs now) { (void)now; }

  /**
   * The policy's current hotness estimate for `unit`, on the policy's
   * own scale (higher = hotter; only the ordering matters). Wrappers use
   * this to pick eviction victims coldest-first instead of in address
   * order. The default — no estimate — ranks every unit equally. This is
   * a simulator-internal read: implementations should not report
   * metadata traffic from it (the caller accounts for its own scan).
   */
  virtual uint32_t HotnessOf(PageId unit) const {
    (void)unit;
    return 0;
  }

  /**
   * Batched HotnessOf: `out[i]` = HotnessOf(units[i]) for every i
   * (`out` must be as long as `units`). Rankers that read many units per
   * pass read through this in chunks (the fair-share victim selection
   * asks for 32 units a call and stops once its choice is settled);
   * policies whose estimate has a cheaper batched read override it. The
   * default loops HotnessOf, so a policy that overrides only the scalar
   * read stays consistent.
   */
  virtual void HotnessOfEach(std::span<const PageId> units,
                             std::span<uint32_t> out) const {
    for (size_t i = 0; i < units.size(); ++i) out[i] = HotnessOf(units[i]);
  }

  /** Current metadata footprint in bytes (paper Table 4 metric). */
  virtual size_t MetadataBytes() const = 0;

  /** Policy name as reported in tables (e.g. "Memtis"). */
  virtual const char* name() const = 0;

 protected:
  /**
   * Batch delivery body; the default falls back to per-access OnAccess
   * so subclasses that only implement the per-access hook behave
   * identically under batch dispatch.
   */
  virtual void OnAccessBatchImpl(std::span<const TouchEvent> events) {
    for (const TouchEvent& event : events) {
      OnAccess(event.unit, event.touch, event.now);
    }
  }

  /** Bound context accessors for subclasses. */
  const PolicyContext& context() const { return context_; }
  TieredMemory& memory() const { return *context_.memory; }
  MigrationEngine& migration() const { return *context_.migration; }
  MetadataTrafficCounter& sink() const { return *context_.metadata_sink; }

  PolicyContext context_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_POLICY_H_
