#ifndef HYBRIDTIER_OBS_STAGE_PROFILER_H_
#define HYBRIDTIER_OBS_STAGE_PROFILER_H_

/**
 * @file
 * Sampled wall-clock attribution of the simulation engine's stages.
 *
 * The ROADMAP's "raw speed, round two" analysis names a ~49 ns/access
 * floor and attributes it (cache traffic ~25 ns, policy ~6 ns,
 * loop+replay ~10 ns, Zipf draw ~30 ns live) — but those numbers were
 * prose, measured once by hand. `StageProfiler` makes the breakdown a
 * measured artifact: the engine times one op in every `sample_every`
 * (default 64) with per-stage `clock_gettime(CLOCK_MONOTONIC)` reads
 * and records where the wall time went.
 *
 * Sampling keeps the observer effect bounded: an unsampled op runs the
 * exact unprofiled code path (the engine instantiates its op loop as a
 * template on a compile-time `kProfiled` flag, so the common
 * instantiation contains no timing code at all), and a null profiler
 * pointer disables even the sampling countdown.
 *
 * Unlike everything else in `src/obs/`, stage times are *wall-clock*
 * measurements — they vary run to run and are reported as such (a
 * bench table, never part of the determinism-gated outputs). Where
 * the *simulated* nanoseconds of an op go is `LatencyAttribution`'s
 * job (obs/attribution.h): cache = the access components, migration =
 * `kMigrationStall`, accounting = `kOpOverhead`.
 */

#include <cstdint>
#include <ctime>
#include <string>

namespace hybridtier {

/** Engine stages attributed by the profiler. */
enum class Stage : uint8_t {
  kGeneration = 0,  //!< Workload NextOp (generation or trace replay).
  kCache,           //!< Cache-hierarchy probes + perf-model latency.
  kPolicy,          //!< Policy dispatch (inline, batch, and OnSample).
  kSampler,         //!< Sampler OnAccess + drain.
  kMigration,       //!< Migration-stall accounting + tick maintenance.
  kAccounting,      //!< Latency histograms, tenant bookkeeping.
  kCount,
};

/** Human-readable stage name ("generation", "cache", ...). */
const char* StageName(Stage stage);

/** Accumulates sampled per-stage wall time for one simulation. */
class StageProfiler {
 public:
  /** One stage's accumulated sample totals. */
  struct StageTotals {
    uint64_t wall_ns = 0;  //!< Wall time across sampled ops.
    uint64_t events = 0;   //!< Sampled ops that touched this stage.
  };

  explicit StageProfiler(uint32_t sample_every = 64)
      : sample_every_(sample_every == 0 ? 1 : sample_every),
        countdown_(1) {}  // Profile the first op, then every Nth.

  /** Monotonic wall-clock read (ns). */
  static uint64_t NowNs() {
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
  }

  /** Returns true when the op starting now should be profiled. */
  bool BeginOp() {
    if (--countdown_ > 0) return false;
    countdown_ = sample_every_;
    return true;
  }

  /** Adds one sampled measurement of `stage`. */
  void Record(Stage stage, uint64_t wall_ns) {
    StageTotals& totals = stages_[static_cast<size_t>(stage)];
    totals.wall_ns += wall_ns;
    ++totals.events;
  }

  /** Closes one sampled op: its total wall time and access count. */
  void RecordOp(uint64_t wall_ns, uint64_t accesses) {
    op_wall_ns_ += wall_ns;
    op_accesses_ += accesses;
    ++ops_;
  }

  /** Folds `other`'s samples into this profiler (cross-rep/cell). */
  void Merge(const StageProfiler& other);

  const StageTotals& totals(Stage stage) const {
    return stages_[static_cast<size_t>(stage)];
  }

  uint64_t sampled_ops() const { return ops_; }
  uint64_t sampled_accesses() const { return op_accesses_; }
  uint64_t sampled_op_wall_ns() const { return op_wall_ns_; }

  /** Mean ns per sampled access spent in `stage`. */
  double NsPerAccess(Stage stage) const {
    return op_accesses_ == 0
               ? 0.0
               : static_cast<double>(totals(stage).wall_ns) /
                     static_cast<double>(op_accesses_);
  }

  /** Op wall time not attributed to any stage (loop overhead). */
  uint64_t OtherNs() const;

  /** Multi-line per-stage table (ns/access), for bench output. */
  std::string Report() const;

 private:
  StageTotals stages_[static_cast<size_t>(Stage::kCount)];
  uint64_t op_wall_ns_ = 0;
  uint64_t op_accesses_ = 0;
  uint64_t ops_ = 0;
  uint32_t sample_every_;
  uint32_t countdown_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_OBS_STAGE_PROFILER_H_
