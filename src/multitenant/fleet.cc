#include "multitenant/fleet.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/spec_reader.h"
#include "workloads/factory.h"
#include "workloads/workload.h"

namespace hybridtier {

namespace {

constexpr char kPrefix[] = "fleet:";

/** Reads a Zipf skew (zipf=, fpskew=): a number >= 0. */
double ReadSkew(SpecReader& reader) {
  const SpecReader value = reader;
  const double skew = reader.ReadNumber("fleet skew");
  if (skew < 0.0) value.Fail("fleet skews must be >= 0");
  return skew;
}

/**
 * One exponential dwell time of mean `mean` ns, at least 1 ns. Capped
 * at 2^63 ns so the cast stays defined and window ends cannot wrap.
 */
TimeNs Dwell(Rng* rng, double mean) {
  return static_cast<TimeNs>(std::clamp(rng->Exponential(mean), 1.0, 0x1p63));
}

/**
 * Memoryless on/off residency: exponential dwell times with means
 * duty*period (on) and (1-duty)*period (off). The tenant starts
 * resident with probability `duty`, so the expected present fraction
 * is `duty` from t=0, not only in steady state.
 */
std::vector<ResidencyWindow> PoissonWindows(const FleetSpec& spec,
                                            uint32_t rank, Rng* rng) {
  (void)rank;
  const double on_mean =
      spec.duty * static_cast<double>(spec.period_ns);
  const double off_mean =
      (1.0 - spec.duty) * static_cast<double>(spec.period_ns);
  std::vector<ResidencyWindow> windows;
  TimeNs t = 0;
  if (!rng->Bernoulli(spec.duty)) {
    t = Dwell(rng, off_mean);
  }
  while (t < spec.horizon_ns) {
    const TimeNs arrival = t;
    const TimeNs departure = arrival + Dwell(rng, on_mean);
    if (departure >= spec.horizon_ns) {
      windows.push_back(ResidencyWindow{arrival, 0});
      break;
    }
    windows.push_back(ResidencyWindow{arrival, departure});
    t = departure + Dwell(rng, off_mean);
  }
  // Every draw landed past the horizon: the tenant sits out the
  // observed run but still needs a window (none = always resident).
  if (windows.empty()) windows.push_back(ResidencyWindow{t, 0});
  return windows;
}

/**
 * Recurring residency: on for duty*period out of every period, phases
 * spread evenly across the fleet so arrivals and departures tile the
 * cycle instead of stampeding together.
 */
std::vector<ResidencyWindow> DiurnalWindows(const FleetSpec& spec,
                                            uint32_t rank) {
  const TimeNs phase =
      (spec.period_ns * static_cast<TimeNs>(rank - 1)) / spec.tenants;
  const TimeNs on = std::max<TimeNs>(
      1, static_cast<TimeNs>(spec.duty *
                             static_cast<double>(spec.period_ns)));
  std::vector<ResidencyWindow> windows;
  for (TimeNs start = phase; start < spec.horizon_ns;
       start += spec.period_ns) {
    const TimeNs departure = start + on;
    if (departure >= spec.horizon_ns) {
      windows.push_back(ResidencyWindow{start, 0});
      break;
    }
    windows.push_back(ResidencyWindow{start, departure});
  }
  return windows;
}

}  // namespace

bool IsFleetSpec(const std::string& text) {
  return text.rfind(kPrefix, 0) == 0;
}

FleetSpec ParseFleetSpec(const std::string& text) {
  SpecReader reader{text};
  if (!reader.Consume(kPrefix)) {
    reader.Fail("fleet spec must start with 'fleet:'");
  }
  const SpecReader body = reader;
  FleetSpec spec;
  spec.tenants = static_cast<uint32_t>(
      reader.ReadUint("fleet tenant count", 1, 1000000));
  while (!reader.AtEnd()) {
    if (!reader.Consume(",")) {
      reader.Fail("expected ',' before each fleet key");
    }
    const SpecReader key_start = reader;
    const std::string key = reader.ReadWord();
    if (!reader.Consume("=")) key_start.Fail("expected key=value");
    const SpecReader value = reader;
    if (key == "wl") {
      spec.workload_id = reader.ReadWord();
      if (!IsWorkloadId(spec.workload_id)) {
        value.Fail("unknown workload id");
      }
    } else if (key == "zipf") {
      spec.weight_skew = ReadSkew(reader);
    } else if (key == "fp") {
      spec.footprint_pages = reader.ReadUint("fleet footprint", 1);
    } else if (key == "fpskew") {
      spec.footprint_skew = ReadSkew(reader);
    } else if (key == "churn") {
      spec.churn = reader.ReadWord();
      if (spec.churn != "none" && spec.churn != "poisson" &&
          spec.churn != "diurnal") {
        value.Fail("fleet churn must be none|poisson|diurnal");
      }
    } else if (key == "duty") {
      spec.duty = reader.ReadNumber("fleet duty");
      if (!(spec.duty > 0.0 && spec.duty < 1.0)) {
        value.Fail("fleet duty must be in (0,1)");
      }
    } else if (key == "period") {
      spec.period_ns = reader.ReadTime("fleet period");
      if (spec.period_ns == 0) value.Fail("fleet period must be positive");
    } else if (key == "horizon") {
      spec.horizon_ns = reader.ReadTime("fleet horizon");
    } else if (key == "seed") {
      spec.seed = reader.ReadUint("fleet seed", 0);
    } else {
      key_start.Fail("unknown fleet key");
    }
  }
  if (spec.horizon_ns < spec.period_ns) {
    body.Fail("fleet needs horizon >= period");
  }
  return spec;
}

std::string FormatFleetSpec(const FleetSpec& spec) {
  std::string out = kPrefix + std::to_string(spec.tenants);
  out += ",wl=" + spec.workload_id;
  out += ",zipf=" + FormatSpecNumber(spec.weight_skew);
  out += ",fp=" + std::to_string(spec.footprint_pages);
  out += ",fpskew=" + FormatSpecNumber(spec.footprint_skew);
  out += ",churn=" + spec.churn;
  out += ",duty=" + FormatSpecNumber(spec.duty);
  out += ",period=" + std::to_string(spec.period_ns);
  out += ",horizon=" + std::to_string(spec.horizon_ns);
  out += ",seed=" + std::to_string(spec.seed);
  return out;
}

std::vector<TenantSpec> MakeFleetSpecs(const FleetSpec& spec) {
  // A spec built in code gets the parser's checks through its
  // canonical form.
  ParseFleetSpec(FormatFleetSpec(spec));
  // Footprint scales are relative to the workload family's base
  // footprint, probed once at scale 1.0 (cheap for the synthetic
  // generators a fleet multiplexes).
  const double base_pages = static_cast<double>(
      MakeWorkload(spec.workload_id, 1.0, 1)->footprint_pages());
  std::vector<TenantSpec> specs;
  specs.reserve(spec.tenants);
  for (uint32_t rank = 1; rank <= spec.tenants; ++rank) {
    TenantSpec tenant;
    tenant.workload_id = spec.workload_id;
    tenant.weight =
        spec.weight_skew == 0.0
            ? 1.0
            : std::pow(static_cast<double>(rank), -spec.weight_skew);
    const double pages = std::max(
        64.0, static_cast<double>(spec.footprint_pages) *
                  (spec.footprint_skew == 0.0
                       ? 1.0
                       : std::pow(static_cast<double>(rank),
                                  -spec.footprint_skew)));
    tenant.scale = pages / base_pages;
    // seed stays 0: MakeMuxWorkload derives per-tenant access-stream
    // seeds from the run seed; only the churn schedule is pinned to the
    // fleet seed (same fleet, different runs => same windows).
    if (spec.churn == "poisson") {
      uint64_t state = spec.seed ^ (0x9e3779b97f4a7c15ULL * rank);
      Rng rng(SplitMix64Next(state));
      tenant.windows = PoissonWindows(spec, rank, &rng);
    } else if (spec.churn == "diurnal") {
      tenant.windows = DiurnalWindows(spec, rank);
    }
    specs.push_back(std::move(tenant));
  }
  return specs;
}

}  // namespace hybridtier
