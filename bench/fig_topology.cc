/**
 * @file
 * Multi-endpoint topology figure (beyond the paper): the same
 * quota-pressured multi-tenant mix runs over three slow-tier device
 * layouts — symmetric direct-attached expanders, an asymmetric tree
 * with two far devices behind a saturable switch, and a degraded fabric
 * where one expander runs hot at 4 GB/s — each with the fair-share
 * stack endpoint-blind (legacy HybridTier behavior) and endpoint-aware
 * (victim selection and fill-to-quota weigh hotness against the home
 * endpoint's idle latency + queue backlog).
 *
 * Shape targets: awareness is free on the symmetric layout (every unit
 * costs the same, the rankings collapse to the blind ones) and pays on
 * the skewed ones — lower mean op latency on the asymmetric layout,
 * lower p50 and p99 on the degraded one, with the degraded cell steering
 * demand traffic off the slow endpoint (its share of slow-tier accesses
 * drops vs blind). Percentiles are exact grouped-data quantiles. The
 * asymmetric layout's p50 and p99 are reported but not gated: blind and
 * aware put them inside the same latency clusters (~625.5 and
 * ~1233.8 ns), a tenth of a ns apart, so the gate reads the mean, which
 * weighs every op.
 *
 * Outputs:
 *  - `fig_topology.csv`: virtual-time metrics only — byte-identical
 *    across `--jobs` values (the CI jobs-invariance gate byte-diffs it).
 *  - `BENCH_topology.json`: the same cells plus the gate verdicts.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"
#include "common/units.h"
#include "core/simulation.h"
#include "mem/topology.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 4000000;
constexpr uint64_t kWarmup = 500000;
constexpr uint64_t kSeed = 42;
constexpr double kRatio = 1.0 / 8;

// Three Zipf hot sets (one double-weighted): enough quota pressure
// that most of the footprint lives on the slow tier and the enforcer
// actually demotes every rebalance, which is where endpoint choice
// shows up.
const char kTenants[] = "zipf,zipf:2,zipf";

struct TopoPoint {
  const char* name;  //!< CSV/JSON label.
  const char* spec;  //!< mem/topology.h spec; "" = bench default.
};

/**
 * The three layouts under test. Endpoint 0 keeps the paper's emulated
 * CXL timings in all of them, so the blind policy's view of "the slow
 * tier" is always anchored at the same baseline device.
 */
const TopoPoint kTopologies[] = {
    // Three identical direct-attached expanders.
    {"sym", "cxl:(1,2,3)"},
    // One near device + two far ones behind a shared 8 GB/s switch
    // uplink (the tree shape CXL 2.0 switches introduce): a switch hop
    // roughly doubles idle latency and the shared uplink saturates
    // under demand + migration traffic.
    {"asym", "cxl:(1,(2,3)),lat=124:350:350,bw=34:8:8,link=8"},
    // One expander degraded to 4 GB/s with 420 ns idle latency — the
    // fabric-health case: traffic landing there queues hard.
    {"degraded", "cxl:(1,2,3),lat=124:124:420,bw=34:34:4"},
};

struct TopoCell {
  std::string topology;
  std::string mode;  // "blind" | "aware".
  SimulationResult result;
  std::vector<uint64_t> endpoint_accesses;
  uint64_t fast_capacity_units = 0;

  /** Fraction of slow-tier demand accesses served by `endpoint`. */
  double EndpointShare(size_t endpoint) const {
    uint64_t total = 0;
    for (const uint64_t n : endpoint_accesses) total += n;
    if (total == 0 || endpoint >= endpoint_accesses.size()) return 0.0;
    return static_cast<double>(endpoint_accesses[endpoint]) /
           static_cast<double>(total);
  }
};

TopoCell RunTopo(const std::string& topo_name, const std::string& spec,
                 bool aware) {
  TopoCell cell;
  cell.topology = topo_name;
  cell.mode = aware ? "aware" : "blind";

  auto mux = MakeMuxWorkload(ParseTenantList(kTenants), kSeed);
  FairShareConfig fair_config;
  fair_config.endpoint_aware = aware;
  auto policy = std::make_unique<FairSharePolicy>(
      MakePolicy("HybridTier"), mux->directory(), fair_config);

  SimulationConfig config;
  config.fast_tier_fraction = kRatio;
  config.max_accesses = kAccessBudget;
  config.warmup_accesses = kWarmup;
  config.seed = kSeed;
  config.topology = spec;

  Simulation simulation(config, mux.get(), policy.get());
  cell.result = simulation.Run();
  cell.fast_capacity_units = simulation.fast_capacity_units();
  const PerfModel& perf = simulation.perf_model();
  for (uint32_t e = 0; e < perf.EndpointCount(); ++e) {
    cell.endpoint_accesses.push_back(perf.EndpointAccesses(e));
  }
  return cell;
}

void WriteJson(const std::string& path, const std::vector<TopoCell>& cells,
               bool aware_wins_asym, bool aware_wins_degraded,
               bool steers_off_degraded, bool aware_p99_degraded) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"fig_topology\",\n"
      << "  \"access_budget\": " << kAccessBudget << ",\n"
      << "  \"tenants\": \"" << kTenants << "\",\n"
      << "  \"gates\": {\"aware_wins_asym\": "
      << (aware_wins_asym ? "true" : "false")
      << ", \"aware_wins_degraded\": "
      << (aware_wins_degraded ? "true" : "false")
      << ", \"steers_off_degraded\": "
      << (steers_off_degraded ? "true" : "false")
      << ", \"aware_p99_degraded\": "
      << (aware_p99_degraded ? "true" : "false") << "},\n"
      << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const TopoCell& cell = cells[i];
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "    {\"topology\": \"%s\", \"mode\": \"%s\", "
        "\"mean_ns\": %.2f, \"p50_ns\": %.1f, \"p99_ns\": %.1f, "
        "\"mops\": %.3f, \"fast_fill\": %.4f, \"endpoint_shares\": [",
        cell.topology.c_str(), cell.mode.c_str(),
        cell.result.mean_latency_ns, cell.result.median_latency_ns,
        cell.result.p99_latency_ns, cell.result.throughput_mops, cell.result.FastAccessFraction());
    out << line;
    for (size_t e = 0; e < cell.endpoint_accesses.size(); ++e) {
      std::snprintf(line, sizeof(line), "%s%.4f", e == 0 ? "" : ", ",
                    cell.EndpointShare(e));
      out << line;
    }
    out << "]}" << (i + 1 == cells.size() ? "" : ",") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig_topology",
         "endpoint-aware vs endpoint-blind placement across slow-tier "
         "layouts");

  // --topology overrides the swept layouts with one custom spec; the
  // built-in gates only apply to the default three-layout sweep.
  std::vector<TopoPoint> topologies;
  if (options.topology.empty()) {
    topologies.assign(std::begin(kTopologies), std::end(kTopologies));
  } else {
    topologies.push_back({"custom", options.topology.c_str()});
  }

  std::vector<std::string> topo_names;
  for (const TopoPoint& topo : topologies) topo_names.push_back(topo.name);
  SweepGrid grid;
  grid.AddAxis("topology", topo_names);
  grid.AddAxis("mode", {"blind", "aware"});
  SweepRunner runner = MakeSweepRunner(options, "fig_topology");
  const std::vector<TopoCell> cells =
      runner.Run(grid, [&](const SweepCell& cell) {
        return RunTopo(cell.Get("topology"),
                       topologies[cell.ValueIndex("topology")].spec,
                       cell.Get("mode") == "aware");
      });

  TablePrinter table({"topology", "mode", "mean ns", "p50 ns", "p99 ns",
                      "Mop/s", "fast-fill %", "endpoint shares %"});
  table.SetTitle("per-layout results (FairShare(HybridTier), 1:8)");
  for (const TopoCell& cell : cells) {
    std::string shares;
    for (size_t e = 0; e < cell.endpoint_accesses.size(); ++e) {
      if (e > 0) shares += '/';
      shares += FormatDouble(cell.EndpointShare(e) * 100, 1);
    }
    table.AddRow({cell.topology, cell.mode,
                  FormatDouble(cell.result.mean_latency_ns, 2),
                  FormatDouble(cell.result.median_latency_ns, 1),
                  FormatDouble(cell.result.p99_latency_ns, 1),
                  FormatDouble(cell.result.throughput_mops, 3),
                  FormatDouble(cell.result.FastAccessFraction() * 100, 1),
                  shares});
  }
  table.Print(std::cout);

  // CSV mirror (virtual-time only; byte-diffed across --jobs by CI).
  TablePrinter csv({"topology", "mode", "mean_ns", "p50_ns", "p99_ns",
                    "mops", "fast_fill", "ep0_share", "ep1_share",
                    "ep2_share"});
  csv.SetTitle("fig_topology");
  for (const TopoCell& cell : cells) {
    csv.AddRow({cell.topology, cell.mode,
                FormatDouble(cell.result.mean_latency_ns, 2),
                FormatDouble(cell.result.median_latency_ns, 1),
                FormatDouble(cell.result.p99_latency_ns, 1),
                FormatDouble(cell.result.throughput_mops, 3),
                FormatDouble(cell.result.FastAccessFraction(), 4),
                FormatDouble(cell.EndpointShare(0), 4),
                FormatDouble(cell.EndpointShare(1), 4),
                FormatDouble(cell.EndpointShare(2), 4)});
  }
  csv.WriteCsv(CsvPath("fig_topology"));

  if (!options.topology.empty()) {
    // Custom layout: report only — the built-in expectations describe
    // the default sweep's three layouts.
    WriteJson("BENCH_topology.json", cells, false, false, false, false);
    std::cout << "wrote BENCH_topology.json (custom layout, no gates)\n";
    return 0;
  }

  // Gates: blind vs aware per layout, paired by sweep order
  // (topology-major, blind before aware).
  const auto find = [&](const std::string& topo,
                        const std::string& mode) -> const TopoCell& {
    for (const TopoCell& cell : cells) {
      if (cell.topology == topo && cell.mode == mode) return cell;
    }
    HT_FATAL("missing cell ", topo, "/", mode);
  };
  const bool aware_wins_asym = find("asym", "aware").result.mean_latency_ns <
                               find("asym", "blind").result.mean_latency_ns;
  const bool aware_wins_degraded =
      find("degraded", "aware").result.median_latency_ns <
      find("degraded", "blind").result.median_latency_ns;
  // Endpoint 2 is the 420 ns / 4 GB/s device in the degraded layout.
  const bool steers_off_degraded =
      find("degraded", "aware").EndpointShare(2) <
      find("degraded", "blind").EndpointShare(2);
  const bool aware_p99_degraded =
      find("degraded", "aware").result.p99_latency_ns <
      find("degraded", "blind").result.p99_latency_ns;

  WriteJson("BENCH_topology.json", cells, aware_wins_asym,
            aware_wins_degraded, steers_off_degraded, aware_p99_degraded);
  std::cout << "wrote BENCH_topology.json\n"
            << "aware beats blind mean (asym):    "
            << (aware_wins_asym ? "yes" : "NO") << "\n"
            << "aware beats blind p50 (degraded): "
            << (aware_wins_degraded ? "yes" : "NO") << "\n"
            << "steers off degraded endpoint:     "
            << (steers_off_degraded ? "yes" : "NO") << "\n"
            << "aware beats blind p99 (degraded): "
            << (aware_p99_degraded ? "yes" : "NO") << "\n";

  const bool ok = aware_wins_asym && aware_wins_degraded &&
                  steers_off_degraded && aware_p99_degraded;
  if (!ok) std::cout << "TOPOLOGY GATE FAILURE: see table above\n";
  return ok ? 0 : 1;
}
