#ifndef HYBRIDTIER_FAULT_FAULT_SPEC_H_
#define HYBRIDTIER_FAULT_FAULT_SPEC_H_

/**
 * @file
 * Deterministic fault-schedule specs.
 *
 * A fault schedule names when each slow-tier endpoint degrades, dies,
 * or flaps, as a compact spec string mirroring the topology grammar
 * (`mem/topology.h`):
 *
 *   faults:ep2@5s=down,ep1@2s-8s=degrade3x,ep0@1s-3s=flap(p=0.2,period=50ms)
 *
 * One comma-separated event per token:
 *   ep<N>@<start>[-<end>]=<kind>
 *     <start>/<end>  virtual-time instants in the shared spec time
 *                    syntax (common/spec_reader.h): bare numbers are
 *                    ns, ns/us/ms/s suffixes scale ("2.5s", "1e9").
 *                    No <end> = the fault never clears.
 *     down           the endpoint rejects accesses (each demand access
 *                    pays the configured fault stall) until <end>, then
 *                    passes through a recovering window.
 *     degrade<F>x    idle latency multiplied and bandwidth divided by
 *                    F (> 1) for the interval.
 *     flap(p=,period=)  the interval is cut into `period`-sized slots;
 *                    each slot is down with probability p, decided by a
 *                    seeded hash of (endpoint, slot) — the same spec
 *                    always flaps identically. Requires an <end>.
 *
 * Chaos mode generates a randomized-but-seeded schedule:
 *
 *   faults:chaos(seed=7,endpoints=3,horizon=200ms,events=6)
 *
 * expands deterministically (SplitMix64 over the seed) into concrete
 * events at parse time, so a chaos run replays bit-identically for the
 * same spec — across reruns and sweep `--jobs` values alike.
 *
 * `FormatFaultSpec` emits the canonical form (events sorted by start
 * time, all times as raw ns): Parse(Format(s)) == s for every valid
 * schedule, including expanded chaos schedules. Malformed specs are
 * user errors reported through `SpecFatal` with the offending token
 * and byte offset.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace hybridtier {

/** What a fault event does to its endpoint while active. */
enum class FaultKind : uint8_t {
  kDown = 0,     //!< Endpoint rejects accesses (fault stall).
  kDegrade = 1,  //!< Latency multiplied / bandwidth divided by factor.
  kFlap = 2,     //!< Seeded per-period coin between down and healthy.
};

/** One scheduled fault on one endpoint. */
struct FaultEvent {
  uint32_t endpoint = 0;       //!< Slow-tier endpoint index (0-based).
  TimeNs start_ns = 0;         //!< Fault onset (virtual time).
  TimeNs end_ns = 0;           //!< Fault clears; 0 = never (not flap).
  FaultKind kind = FaultKind::kDown;
  double factor = 1.0;         //!< Degrade multiplier (> 1).
  double flap_p = 0.0;         //!< Per-period down probability (flap).
  TimeNs flap_period_ns = 0;   //!< Flap slot width.
};

/** A full fault schedule (possibly empty = healthy fabric). */
struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /** Largest endpoint index named by any event (0 when empty). */
  uint32_t MaxEndpoint() const;
};

/**
 * Parses a `faults:` spec (fatal with token + byte offset on user
 * error). Chaos specs are expanded into concrete events here; the
 * returned schedule is always a concrete, canonically ordered event
 * list. An empty body ("faults:") is invalid; pass "" for no faults.
 */
FaultSchedule ParseFaultSpec(const std::string& text);

/** Canonical spec of `schedule`; ParseFaultSpec round-trips it. */
std::string FormatFaultSpec(const FaultSchedule& schedule);

/**
 * The seeded flap coin: whether flap event slot `slot` of `endpoint`
 * is down, for per-period probability `p`. A pure hash of its inputs,
 * shared by the health tracker and tests.
 */
bool FlapSlotDown(uint32_t endpoint, uint64_t slot, double p);

}  // namespace hybridtier

#endif  // HYBRIDTIER_FAULT_FAULT_SPEC_H_
