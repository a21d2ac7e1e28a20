#ifndef HYBRIDTIER_BENCH_COMMON_BENCH_UTIL_H_
#define HYBRIDTIER_BENCH_COMMON_BENCH_UTIL_H_

/**
 * @file
 * Shared driver for the per-figure/per-table benchmark binaries.
 *
 * Each bench binary reproduces one paper artifact: it sweeps the
 * relevant (workload x policy x ratio) cells, prints the same rows or
 * series the paper reports, and writes a CSV next to the binary.
 *
 * The scaled defaults here (access budget, cooling periods, churn
 * timing) are the time-compressed equivalents of the paper's setup; the
 * mapping is documented in EXPERIMENTS.md.
 */

#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "core/simulation.h"
#include "exec/sweep.h"
#include "workloads/factory.h"

namespace hybridtier::bench {

/** The paper's fast:slow ratios, as fast-tier fractions. */
struct RatioPoint {
  const char* label;  //!< e.g. "1:16".
  double fraction;    //!< e.g. 1.0/16.
};

/** {1:16, 1:8, 1:4} in paper order. */
const std::vector<RatioPoint>& PaperRatios();

/** PaperRatios labels, as a sweep axis value list. */
std::vector<std::string> PaperRatioLabels();

/** Fast-tier fraction of a PaperRatios label; fatal on unknown labels. */
double RatioFraction(const std::string& label);

/** Flags shared by every bench binary. */
struct BenchOptions {
  /** Sweep worker threads; 0 = hardware_concurrency. */
  unsigned jobs = 0;
  /** Sweep-level wall-clock Perfetto trace path ("" = off). */
  std::string trace_out;
  /** Sweep-level wall-time JSON summary path ("" = off). */
  std::string metrics_out;
  /**
   * Slow-tier topology spec override ("" = each bench's own default,
   * usually the single-endpoint legacy layout). Validated eagerly at
   * parse time so a typo fails before any cell runs; see
   * mem/topology.h for the `cxl:(...)` grammar.
   */
  std::string topology;
};

/**
 * Parses the shared bench flags: `--jobs N` (sweep worker threads,
 * default hardware_concurrency), `--log-level LEVEL` (debug | info |
 * warn | error | silent; applied immediately via SetLogLevel),
 * `--trace-out FILE` / `--metrics-out FILE` (sweep-level wall-clock
 * telemetry), `--topology SPEC` (slow-tier device layout, see
 * mem/topology.h), and `--help`. Exits with usage on unknown flags, so
 * every matrix driver rejects typos the same way.
 */
BenchOptions ParseBenchArgs(int argc, char** argv);

/**
 * SweepRunner for this bench: worker count and telemetry sinks from
 * the parsed flags, progress + per-sweep wall-time reporting under the
 * bench's name. Cell outputs stay jobs-invariant (see exec/sweep.h);
 * wall time is logged only, never written into a CSV.
 */
SweepRunner MakeSweepRunner(const BenchOptions& options, std::string name);

/** One simulation cell: workload id + policy name + ratio + budgets. */
struct RunSpec {
  std::string workload_id;
  std::string policy_name = "HybridTier";
  double fast_fraction = 1.0 / 8;
  double workload_scale = 0.25;       //!< Factory footprint scale.
  uint64_t max_accesses = 6000000;    //!< Access budget per run.
  uint64_t warmup_accesses = 1000000; //!< Stats reset after warmup.
  PageMode mode = PageMode::kRegular;
  uint64_t seed = 42;
  std::vector<ChurnEvent> churn;      //!< CacheLib-only.
  PolicyOptions policy_options;       //!< Scaled policy knobs.
  SimulationConfig base_config;       //!< Further overrides.
};

/** Executes one cell and returns its results. */
SimulationResult RunCell(const RunSpec& spec);

/**
 * Post-warmup runtime in ns — the figure-of-merit for equal-access-count
 * runs (lower is better).
 */
uint64_t SteadyDurationNs(const SimulationResult& result);

/**
 * Median of the last quarter of `series`' points by nearest rank (the
 * upper median for an even count): the steady level an adaptation
 * timeline settles toward. 0 when `series` is empty.
 */
double TailMedian(const TimeSeries& series);

/** Geometric mean of a vector (ignores non-positive entries). */
double GeoMean(const std::vector<double>& values);

/** Formats a ratio like "1.23x". */
std::string FormatSpeedup(double value);

/** Standard "[bench] ..." banner line to stdout. */
void Banner(const std::string& name, const std::string& what);

/** Output directory for CSVs (current directory). */
std::string CsvPath(const std::string& bench_name);

}  // namespace hybridtier::bench

#endif  // HYBRIDTIER_BENCH_COMMON_BENCH_UTIL_H_
