#ifndef HYBRIDTIER_OBS_STAGE_PROFILER_H_
#define HYBRIDTIER_OBS_STAGE_PROFILER_H_

/**
 * @file
 * Sampled wall-clock attribution of the simulation engine's stages.
 *
 * The engine times one op in every `sample_every` (default 64) by
 * laps: `BeginOp` starts a lap clock before the op is generated, the
 * engine calls `Lap(stage)` at each phase boundary of the op, and
 * `EndOp` closes it, so a sampled op reads the clock eight times (nine
 * with batched dispatch) whatever its access count. Each lap is
 * charged to the stage it just finished, minus one back-to-back
 * `clock_gettime` read, measured once per process (`ClockReadNs`), so
 * the stages sum to the simulator's time rather than the clock's.
 *
 * An unsampled op runs the same engine code with a null lap profiler:
 * a handful of per-op branches and nothing inside the access loop. A
 * null profiler pointer disables even the sampling countdown. Because
 * the cache stage spans the whole access loop, inline policy dispatch
 * (TPP, AutoNUMA) and the sampler's per-access countdown are part of
 * it; the per-call cost of inline `OnAccess` is perfbench's
 * `policies.on_access_ns`.
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

/** Engine stages attributed by the profiler, one lap each per op. */
enum class Stage : uint8_t {
  kGeneration = 0,  //!< Workload NextOp (generation or trace replay).
  kCache,           //!< The whole access loop: probes, perf model, inline
                    //!< OnAccess, sampler countdown.
  kPolicy,          //!< Batched dispatch and OnSample dispatch.
  kSampler,         //!< Sample-buffer drain.
  kMigration,       //!< Tick maintenance + migration-stall accounting.
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
    uint64_t events = 0;   //!< Laps charged to this stage.
  };

  explicit StageProfiler(uint32_t sample_every = 64)
      : sample_every_(sample_every == 0 ? 1 : sample_every),
        countdown_(1),  // Profile the first op, then every Nth.
        read_ns_(ClockReadNs()) {}

  /**
   * Returns true when the op starting now should be profiled, and then
   * starts its lap clock.
   */
  bool BeginOp() {
    if (--countdown_ > 0) return false;
    countdown_ = sample_every_;
    op_ns_ = 0;
    lap_start_ns_ = NowNs();
    return true;
  }

  /** Charges the time since the previous lap to `stage`. */
  void Lap(Stage stage) { Record(stage, Split()); }

  /**
   * Closes the sampled op that carried `accesses`; the time since the
   * last lap is the op's unattributed remainder ("other").
   */
  void EndOp(uint64_t accesses) {
    Split();
    RecordOp(op_ns_, accesses);
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
  /**
   * Cost of one monotonic clock read (ns): the fastest mean over a few
   * runs of back-to-back reads, measured on first use and then cached
   * for the process.
   */
  static uint64_t ClockReadNs();

  static uint64_t NowNs() {
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
  }

  /**
   * Reads the clock and returns the time since the previous read, less
   * one read's cost; adds it to the open op's wall time.
   */
  uint64_t Split() {
    const uint64_t now = NowNs();
    const uint64_t elapsed = now - lap_start_ns_;
    const uint64_t lap_ns = elapsed > read_ns_ ? elapsed - read_ns_ : 0;
    lap_start_ns_ = now;
    op_ns_ += lap_ns;
    return lap_ns;
  }

  StageTotals stages_[static_cast<size_t>(Stage::kCount)];
  uint64_t op_wall_ns_ = 0;
  uint64_t op_accesses_ = 0;
  uint64_t ops_ = 0;
  uint64_t lap_start_ns_ = 0;  //!< Clock at the open op's last lap.
  uint64_t op_ns_ = 0;         //!< Open op's laps so far.
  uint32_t sample_every_;
  uint32_t countdown_;
  uint64_t read_ns_;  //!< ClockReadNs(), subtracted from every lap.
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_OBS_STAGE_PROFILER_H_
