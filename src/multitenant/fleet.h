#ifndef HYBRIDTIER_MULTITENANT_FLEET_H_
#define HYBRIDTIER_MULTITENANT_FLEET_H_

/**
 * @file
 * Fleet workload generator: thousands of tenants from one spec string.
 *
 * Hand-written tenant lists ("zipf,cdn:2@0-1e8,...") stop scaling at a
 * dozen entries; the fleet regime the ROADMAP targets — a shared CXL
 * pool multiplexing O(10^3) tenants under diurnal or Poisson churn —
 * needs a generator. A `FleetSpec` describes the population
 * statistically and expands deterministically into ordinary
 * `TenantSpec`s that feed the existing `MuxWorkload` machinery:
 *
 *   fleet:1000,zipf=0.9,fp=2048,churn=poisson,duty=0.1,period=1e8
 *
 * Grammar: `fleet:<N>` followed by optional comma-separated `key=value`
 * pairs (a `--tenants` value starting with "fleet:" is one fleet spec,
 * never mixed with explicit tenant entries):
 *
 *   wl=<id>       workload id every tenant runs (default "zipf")
 *   zipf=<t>      Zipf skew of tenant weights: rank r gets r^-t
 *                 (default 0.9; 0 = equal weights)
 *   fp=<pages>    rank-1 footprint in 4 KiB pages (default 2048)
 *   fpskew=<t>    Zipf skew of footprints: rank r gets fp * r^-t,
 *                 floored at 64 pages (default 0 = uniform)
 *   churn=<kind>  none | poisson | diurnal (default none)
 *   duty=<f>      expected fraction of time a tenant is resident,
 *                 in (0,1) (default 0.5)
 *   period=<t>    mean on+off cycle (poisson) or exact recurrence
 *                 period (diurnal), a spec time: bare ns or a
 *                 ns/us/ms/s suffix (default 1e8 = 100ms)
 *   horizon=<t>   stop generating windows here; a window still open at
 *                 the horizon becomes open-ended (default 1e9)
 *   seed=<n>      fleet RNG seed for the Poisson schedules; windows are
 *                 a pure function of (spec, seed), independent of the
 *                 run seed (default 1)
 *
 * Churn kinds:
 *  - `poisson`: each tenant alternates exponential on/off residency
 *    (means duty*period and (1-duty)*period), the memoryless
 *    arrival/departure process; ~duty of the fleet is present at any
 *    instant.
 *  - `diurnal`: each tenant is resident for duty*period out of every
 *    `period`, phase-spread evenly across the fleet — the recurring
 *    co-location pattern (tenant r's windows all start at
 *    r/N * period + k*period).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "multitenant/tenant.h"

namespace hybridtier {

/** Statistical description of a tenant fleet (see file comment). */
struct FleetSpec {
  uint32_t tenants = 0;            //!< Population size (required, > 0).
  std::string workload_id = "zipf";
  double weight_skew = 0.9;        //!< zipf= (0 = equal weights).
  uint64_t footprint_pages = 2048; //!< fp= rank-1 footprint.
  double footprint_skew = 0.0;     //!< fpskew= (0 = uniform).
  std::string churn = "none";      //!< none | poisson | diurnal.
  double duty = 0.5;               //!< Expected resident fraction.
  TimeNs period_ns = 100000000;    //!< Cycle length (1e8 = 100 ms).
  TimeNs horizon_ns = 1000000000;  //!< Window generation horizon.
  uint64_t seed = 1;               //!< Fleet RNG seed (poisson).

  bool operator==(const FleetSpec& other) const = default;
};

/** True iff `text` is a fleet spec (starts with "fleet:"). */
bool IsFleetSpec(const std::string& text);

/**
 * Parses a fleet spec string. Malformed input is a user error reported
 * through the spec reader (bad token and byte offset, exit 1).
 */
FleetSpec ParseFleetSpec(const std::string& text);

/**
 * Formats `spec` back into the grammar above with every knob explicit;
 * `ParseFleetSpec(FormatFleetSpec(s)) == s` for any valid spec.
 */
std::string FormatFleetSpec(const FleetSpec& spec);

/**
 * Expands the spec into per-tenant `TenantSpec`s (weights, footprint
 * scales, residency windows). Deterministic: the same spec always
 * yields the same fleet. Per-tenant workload seeds are left at 0 so
 * `MakeMuxWorkload` derives them from the run seed as usual.
 */
std::vector<TenantSpec> MakeFleetSpecs(const FleetSpec& spec);

}  // namespace hybridtier

#endif  // HYBRIDTIER_MULTITENANT_FLEET_H_
