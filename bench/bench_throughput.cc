/**
 * @file
 * Simulator throughput harness — the perf trajectory of the hot path
 * itself (host accesses/second), not a paper figure.
 *
 * Measures wall-clock simulated-accesses-per-second for each (workload x
 * policy) cell of a fixed zipf+GAP matrix and writes
 * `BENCH_throughput.json` next to the CSV. One knob selects the
 * generation mode under test:
 *
 *   --live     generate ops live in the loop (default: record the op
 *              stream once per workload and replay it — bit-identical
 *              results, generator off the hot path; see
 *              workloads/trace.h)
 *
 * Methodology: each cell runs `--reps N` times (default 3) and reports
 * the best run (minimum wall time) — the standard way to strip scheduler
 * and frequency noise from a throughput measurement. Workload
 * construction and trace recording are untimed; the timer wraps
 * `Simulation::Run()` only.
 *
 * Unlike the figure benches, this binary's outputs are *measurements*:
 * wall times vary run to run and across `--jobs`, so
 * `BENCH_throughput.json` and the CSV are exempt from the sweep
 * jobs-invariance contract (keep them out of CSV-diff gates; for stable
 * numbers run `--jobs 1`).
 *
 * Regression gate (CI): `--check FILE [--min-ratio R]` compares this
 * run's per-policy geomean against the `"current"` section of a
 * committed BENCH_throughput.json and exits nonzero if any policy falls
 * below R x the committed value (default R = 0.9, i.e. fail on a >10%
 * regression). The committed numbers come from a slow 1-core container,
 * so CI hardware regressing below them signals a real engine
 * regression, not machine variance.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/flags.h"
#include "common/table.h"
#include "obs/stage_profiler.h"
#include "workloads/trace.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 6000000;
constexpr uint64_t kSeed = 42;

const std::vector<std::string>& Workloads() {
  static const std::vector<std::string> ids = {"zipf", "bfs-k", "pr-k"};
  return ids;
}

const std::vector<std::string>& Policies() {
  static const std::vector<std::string> names = {"HybridTier", "Memtis",
                                                 "TPP", "AutoNUMA"};
  return names;
}

struct Options {
  unsigned jobs = 0;
  unsigned reps = 3;
  bool live = false;  //!< Generate ops in the loop (no replay).
  std::string check_file;
  double min_ratio = 0.9;
  /**
   * Sample every Nth op through a StageProfiler and print the
   * per-stage ns/access breakdown (generation / cache / policy /
   * sampler / migration / accounting) after the table. A sampled op
   * reads the clock eight times, so don't combine with --check
   * runs whose numbers you intend to commit.
   */
  bool profile_stages = false;
};

[[noreturn]] void Usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [--jobs N] [--reps N] [--live] [--profile-stages]\n"
      "          [--check FILE] [--min-ratio R]\n"
      "  --jobs N      sweep worker threads (timings are only stable\n"
      "                with --jobs 1)\n"
      "  --reps N      runs per cell; the best is reported (default 3)\n"
      "  --live        generate ops live instead of trace replay\n"
      "  --check FILE  fail if any per-policy geomean falls below\n"
      "                min-ratio x FILE's \"current\" geomean\n"
      "  --min-ratio R regression tolerance for --check (default 0.9)\n"
      "  --profile-stages  sample engine stages (generation, cache,\n"
      "                policy, sampler, migration, accounting) and\n"
      "                print the per-policy ns/access breakdown\n",
      argv0);
  std::exit(code);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") Usage(argv[0], 0);
    if (arg == "--jobs") {
      options.jobs = static_cast<unsigned>(
          ParseUintFlag(arg, next_value("--jobs"), 1, 65536));
      continue;
    }
    if (arg == "--reps") {
      options.reps = static_cast<unsigned>(
          ParseUintFlag(arg, next_value("--reps"), 1, 1000));
      continue;
    }
    if (arg == "--live") {
      options.live = true;
      continue;
    }
    if (arg == "--check") {
      options.check_file = next_value("--check");
      continue;
    }
    if (arg == "--min-ratio") {
      options.min_ratio =
          ParseDoubleFlag(arg, next_value("--min-ratio"), 0.0, 1000.0);
      continue;
    }
    if (arg == "--profile-stages") {
      options.profile_stages = true;
      continue;
    }
    std::fprintf(stderr, "unknown option '%s' (try --help)\n", arg.c_str());
    std::exit(1);
  }
  return options;
}

struct CellResult {
  std::string workload;
  std::string policy;
  uint64_t accesses = 0;
  double best_wall_s = 0.0;
  double maccs = 0.0;  //!< Million simulated accesses per wall second.
};

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/** Runs one cell `reps` times; returns the best (min-wall) run. */
CellResult MeasureCell(const std::string& workload_id,
                       const std::string& policy_name,
                       const std::shared_ptr<const RecordedTrace>& trace,
                       unsigned reps, StageProfiler* profiler) {
  CellResult cell;
  cell.workload = workload_id;
  cell.policy = policy_name;
  cell.best_wall_s = 1e30;
  for (unsigned rep = 0; rep < reps; ++rep) {
    std::unique_ptr<Workload> live_workload;
    std::unique_ptr<ReplayWorkload> replay;
    Workload* workload = nullptr;
    if (trace != nullptr) {
      replay = std::make_unique<ReplayWorkload>(trace);
      workload = replay.get();
    } else {
      live_workload =
          MakeWorkload(workload_id, DefaultWorkloadScale(workload_id), kSeed);
      workload = live_workload.get();
    }
    auto policy = MakePolicy(policy_name);
    SimulationConfig config;
    config.max_accesses = kAccessBudget;
    config.seed = kSeed;
    // The profiler accumulates across all reps of this cell.
    config.telemetry.stages = profiler;
    Simulation simulation(config, workload, policy.get());
    const uint64_t start = NowNs();
    const SimulationResult result = simulation.Run();
    const double wall_s =
        static_cast<double>(NowNs() - start) / 1e9;
    cell.accesses = result.accesses;
    cell.best_wall_s = std::min(cell.best_wall_s, wall_s);
  }
  cell.maccs = static_cast<double>(cell.accesses) / cell.best_wall_s / 1e6;
  return cell;
}

/**
 * Measures the whole matrix. When `profilers` is non-null it must hold
 * one StageProfiler per grid cell; each cell writes only its own slot
 * (safe under --jobs).
 */
std::vector<CellResult> MeasureMatrix(
    const Options& options,
    const std::map<std::string, std::shared_ptr<const RecordedTrace>>&
        traces,
    std::vector<StageProfiler>* profilers) {
  SweepGrid grid;
  grid.AddAxis("workload", Workloads());
  grid.AddAxis("policy", Policies());
  BenchOptions bench_options;
  bench_options.jobs = options.jobs == 0 ? 1 : options.jobs;
  SweepRunner runner = MakeSweepRunner(bench_options, "bench_throughput");
  return runner.Run(grid, [&](const SweepCell& cell) {
    const std::string& workload_id = cell.Get("workload");
    auto it = traces.find(workload_id);
    return MeasureCell(workload_id, cell.Get("policy"),
                       it == traces.end() ? nullptr : it->second,
                       options.reps,
                       profilers == nullptr ? nullptr
                                            : &(*profilers)[cell.index()]);
  });
}

std::map<std::string, double> GeomeansByPolicy(
    const std::vector<CellResult>& cells) {
  std::map<std::string, double> result;
  for (const std::string& policy : Policies()) {
    std::vector<double> values;
    for (const CellResult& cell : cells) {
      if (cell.policy == policy) values.push_back(cell.maccs);
    }
    result[policy] = GeoMean(values);
  }
  return result;
}

void WriteJson(const std::string& path, const Options& options,
               const std::vector<CellResult>& cells,
               const std::map<std::string, double>& geomeans) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"bench_throughput\",\n"
      << "  \"generation\": \""
      << (options.live ? "live" : "replay") << "\",\n"
      << "  \"access_budget\": " << kAccessBudget << ",\n"
      << "  \"reps\": " << options.reps << ",\n"
      << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"workload\": \"%s\", \"policy\": \"%s\", "
                  "\"accesses\": %llu, \"best_wall_s\": %.4f, "
                  "\"maccs\": %.3f}%s\n",
                  cell.workload.c_str(), cell.policy.c_str(),
                  static_cast<unsigned long long>(cell.accesses),
                  cell.best_wall_s, cell.maccs,
                  i + 1 == cells.size() ? "" : ",");
    out << line;
  }
  out << "  ],\n  \"geomean_maccs\": {";
  bool first = true;
  for (const auto& [policy, value] : geomeans) {
    char entry[128];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": %.3f",
                  first ? "" : ", ", policy.c_str(), value);
    out << entry;
    first = false;
  }
  out << "}\n}\n";
}

/**
 * Extracts the per-policy geomeans from the `"current"` section of a
 * committed BENCH_throughput.json (falling back to a top-level
 * `"geomean_maccs"` for files this binary wrote itself). Minimal
 * scanning parser for the file formats we emit.
 */
std::map<std::string, double> ReadCommittedGeomeans(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open check file '%s'\n", path.c_str());
    std::exit(1);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();

  // Prefer the "current" section when present (committed trajectory
  // files hold both a pre-PR baseline and the current engine's numbers).
  const size_t current = text.find("\"current\"");
  size_t start = text.find("\"geomean_maccs\"",
                           current == std::string::npos ? 0 : current);
  if (start == std::string::npos) {
    std::fprintf(stderr, "no geomean_maccs in '%s'\n", path.c_str());
    std::exit(1);
  }
  const size_t open = text.find('{', start);
  const size_t close = text.find('}', open);
  std::map<std::string, double> result;
  size_t pos = open;
  while (pos < close) {
    const size_t key_begin = text.find('"', pos);
    if (key_begin == std::string::npos || key_begin >= close) break;
    const size_t key_end = text.find('"', key_begin + 1);
    const size_t colon = text.find(':', key_end);
    const size_t value_begin = text.find_first_not_of(" \t\n", colon + 1);
    const size_t value_end = text.find_first_of(",} \t\n", value_begin);
    result[text.substr(key_begin + 1, key_end - key_begin - 1)] =
        ParseDoubleFlag("geomean_maccs in " + path,
                        text.substr(value_begin, value_end - value_begin),
                        0.0, 1e9);
    pos = text.find(',', colon);
    if (pos == std::string::npos) break;
  }
  return result;
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const Options options = ParseArgs(argc, argv);
  Banner("bench_throughput",
         std::string("simulator accesses/sec, ") +
             (options.live ? "live generation" : "trace replay"));

  // Record each workload's op stream once, outside the timed region;
  // every policy cell replays the same immutable trace.
  std::map<std::string, std::shared_ptr<const RecordedTrace>> traces;
  if (!options.live) {
    for (const std::string& id : Workloads()) {
      auto workload = MakeWorkload(id, DefaultWorkloadScale(id), kSeed);
      traces[id] = std::make_shared<const RecordedTrace>(
          RecordTrace(*workload, kAccessBudget));
    }
  } else {
    // Live mode still pre-builds one workload per id so shared graph
    // construction (CachedGraph) happens before any timer starts.
    for (const std::string& id : Workloads()) {
      MakeWorkload(id, DefaultWorkloadScale(id), kSeed);
    }
  }

  std::vector<StageProfiler> profilers;
  if (options.profile_stages) {
    profilers.resize(Workloads().size() * Policies().size());
  }
  const std::vector<CellResult> cells = MeasureMatrix(
      options, traces, options.profile_stages ? &profilers : nullptr);

  TablePrinter table({"workload", "policy", "accesses", "best wall (s)",
                      "Macc/s"});
  table.SetTitle("Simulator throughput (best of " +
                 std::to_string(options.reps) + ")");
  for (const CellResult& cell : cells) {
    char wall[32], maccs[32];
    std::snprintf(wall, sizeof(wall), "%.3f", cell.best_wall_s);
    std::snprintf(maccs, sizeof(maccs), "%.2f", cell.maccs);
    table.AddRow({cell.workload, cell.policy,
                  std::to_string(cell.accesses), wall, maccs});
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("bench_throughput"));

  const std::map<std::string, double> geomeans = GeomeansByPolicy(cells);
  for (const auto& [policy, value] : geomeans) {
    std::printf("[bench_throughput] %s geomean: %.2f Macc/s\n",
                policy.c_str(), value);
  }

  if (options.profile_stages) {
    // One merged breakdown per policy (across its workloads), then the
    // whole-matrix aggregate — the measured version of the ROADMAP's
    // ns/access floor attribution.
    for (const std::string& policy : Policies()) {
      StageProfiler merged;
      for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].policy == policy) merged.Merge(profilers[i]);
      }
      std::printf("[bench_throughput] stage profile: %s\n%s",
                  policy.c_str(), merged.Report().c_str());
    }
    StageProfiler all;
    for (const StageProfiler& profiler : profilers) all.Merge(profiler);
    std::printf("[bench_throughput] stage profile: all policies\n%s",
                all.Report().c_str());
  }
  // Never clobber a committed trajectory file: the repo-root
  // BENCH_throughput.json carries the curated baseline_pre_pr /
  // current sections the regression gate reads, and this binary run
  // from the repo root would otherwise silently replace it with
  // whatever this host measures.
  std::string out_path = "BENCH_throughput.json";
  {
    std::ifstream existing(out_path);
    std::stringstream buffer;
    if (existing) buffer << existing.rdbuf();
    if (buffer.str().find("\"baseline_pre_pr\"") != std::string::npos) {
      out_path = "BENCH_throughput.new.json";
      std::printf(
          "[bench_throughput] BENCH_throughput.json holds a committed "
          "trajectory; writing %s instead\n",
          out_path.c_str());
    }
  }
  WriteJson(out_path, options, cells, geomeans);
  std::printf("[bench_throughput] wrote %s\n", out_path.c_str());

  if (!options.check_file.empty()) {
    const std::map<std::string, double> committed =
        ReadCommittedGeomeans(options.check_file);
    bool failed = false;
    for (const auto& [policy, reference] : committed) {
      const auto it = geomeans.find(policy);
      if (it == geomeans.end()) continue;
      const double floor = options.min_ratio * reference;
      const bool below = it->second < floor;
      std::printf("[bench_throughput] check %s: %.2f vs committed %.2f "
                  "(floor %.2f) %s\n",
                  policy.c_str(), it->second, reference, floor,
                  below ? "FAIL" : "ok");
      failed |= below;
    }
    if (failed) {
      std::fprintf(stderr,
                   "[bench_throughput] throughput regressed more than "
                   "%.0f%% against %s\n",
                   (1.0 - options.min_ratio) * 100.0,
                   options.check_file.c_str());
      return 1;
    }
  }

  return 0;
}
