#include "common/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/flags.h"
#include "common/logging.h"
#include "mem/topology.h"

namespace hybridtier::bench {

const std::vector<RatioPoint>& PaperRatios() {
  static const std::vector<RatioPoint> ratios = {
      {"1:16", 1.0 / 16}, {"1:8", 1.0 / 8}, {"1:4", 1.0 / 4}};
  return ratios;
}

std::vector<std::string> PaperRatioLabels() {
  std::vector<std::string> labels;
  for (const RatioPoint& ratio : PaperRatios()) {
    labels.push_back(ratio.label);
  }
  return labels;
}

double RatioFraction(const std::string& label) {
  for (const RatioPoint& ratio : PaperRatios()) {
    if (label == ratio.label) return ratio.fraction;
  }
  HT_FATAL("unknown ratio label '", label, "'");
}

BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions options;
  const auto flag_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[*i]);
      std::exit(1);
    }
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf(
          "usage: %s [--jobs N] [--log-level LEVEL] [--trace-out FILE]\n"
          "          [--metrics-out FILE] [--topology SPEC]\n"
          "  --jobs N           sweep worker threads (default: all\n"
          "                     hardware threads); CSV output is\n"
          "                     identical for every N\n"
          "  --log-level LEVEL  debug | info | warn | error | silent\n"
          "                     (default: info)\n"
          "  --trace-out FILE   write a sweep-level wall-clock Perfetto\n"
          "                     trace (one span per cell)\n"
          "  --metrics-out FILE write a sweep-level wall-time JSON\n"
          "                     summary\n"
          "  --topology SPEC    slow-tier device layout, e.g.\n"
          "                     'cxl:(1,(2,3)),lat=124:180:180' (see\n"
          "                     mem/topology.h; default: the bench's\n"
          "                     own layout)\n",
          argv[0]);
      std::exit(0);
    }
    if (std::strcmp(arg, "--log-level") == 0) {
      SetLogLevel(ParseLogLevel(flag_value(&i)));
      continue;
    }
    if (std::strcmp(arg, "--trace-out") == 0) {
      options.trace_out = flag_value(&i);
      continue;
    }
    if (std::strcmp(arg, "--metrics-out") == 0) {
      options.metrics_out = flag_value(&i);
      continue;
    }
    if (std::strcmp(arg, "--topology") == 0) {
      options.topology = flag_value(&i);
      // Fail malformed specs here, before any cell runs.
      (void)ParseTopologySpec(options.topology);
      continue;
    }
    if (std::strcmp(arg, "--jobs") == 0) {
      options.jobs =
          static_cast<unsigned>(ParseUintFlag(arg, flag_value(&i), 1, 65536));
      continue;
    }
    std::fprintf(stderr, "unknown option '%s' (try --help)\n", arg);
    std::exit(1);
  }
  return options;
}

SweepRunner MakeSweepRunner(const BenchOptions& options, std::string name) {
  SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  sweep_options.name = std::move(name);
  sweep_options.trace_out = options.trace_out;
  sweep_options.metrics_out = options.metrics_out;
  return SweepRunner(sweep_options);
}

SimulationResult RunCell(const RunSpec& spec) {
  auto workload = MakeWorkload(spec.workload_id, spec.workload_scale,
                               spec.seed, spec.churn);
  auto policy = MakePolicy(spec.policy_name, spec.policy_options);

  SimulationConfig config = spec.base_config;
  config.fast_tier_fraction =
      FastFractionFor(spec.policy_name, spec.fast_fraction);
  config.allocation = AllocationPolicyFor(spec.policy_name);
  config.max_accesses = spec.max_accesses;
  config.warmup_accesses = spec.warmup_accesses;
  config.mode = spec.mode;
  config.seed = spec.seed;

  return RunSimulation(config, workload.get(), policy.get());
}

uint64_t SteadyDurationNs(const SimulationResult& result) {
  return result.SteadyDurationNs();
}

double TailMedian(const TimeSeries& series) {
  std::vector<double> tail(
      series.values.begin() +
          static_cast<ptrdiff_t>(series.size() * 3 / 4),
      series.values.end());
  if (tail.empty()) return 0.0;
  const auto mid = tail.begin() + static_cast<ptrdiff_t>(tail.size() / 2);
  std::nth_element(tail.begin(), mid, tail.end());
  return *mid;
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  size_t counted = 0;
  for (const double v : values) {
    if (v <= 0.0) continue;
    log_sum += std::log(v);
    ++counted;
  }
  return counted == 0 ? 0.0
                      : std::exp(log_sum / static_cast<double>(counted));
}

std::string FormatSpeedup(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", value);
  return buf;
}

void Banner(const std::string& name, const std::string& what) {
  std::printf("== %s: %s ==\n", name.c_str(), what.c_str());
  std::fflush(stdout);
}

std::string CsvPath(const std::string& bench_name) {
  return bench_name + ".csv";
}

}  // namespace hybridtier::bench
