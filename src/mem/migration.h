#ifndef HYBRIDTIER_MEM_MIGRATION_H_
#define HYBRIDTIER_MEM_MIGRATION_H_

/**
 * @file
 * Batched page-migration engine.
 *
 * All tiering policies execute their promotion/demotion decisions through
 * this engine so that every policy pays identical migration prices: a
 * per-batch syscall overhead plus per-page kernel work, with the copy
 * traffic occupying both tiers' memory channels (see PerfModel). This
 * mirrors HybridTier's use of batched move_pages-style syscalls
 * (paper §4.3: 100,000 samples per promotion batch, one syscall).
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"
#include "mem/page.h"
#include "mem/perf_model.h"
#include "mem/tiered_memory.h"
#include "obs/audit.h"
#include "obs/trace.h"

namespace hybridtier {

/** Cumulative migration counters. */
struct MigrationStats {
  uint64_t promoted_pages = 0;    //!< Pages moved slow -> fast.
  uint64_t demoted_pages = 0;     //!< Pages moved fast -> slow.
  uint64_t promotion_batches = 0; //!< Promotion syscalls issued.
  uint64_t demotion_batches = 0;  //!< Demotion syscalls issued.
  uint64_t failed_promotions = 0; //!< Skipped: fast tier full / not slow.
  uint64_t failed_demotions = 0;  //!< Skipped: slow tier full / not fast.
  TimeNs migration_time_ns = 0;   //!< Total modeled migration time.
};

/** Executes batched migrations against the tiered memory + timing model. */
class MigrationEngine {
 public:
  /**
   * @param memory     placement substrate (not owned).
   * @param perf_model timing model charged for copies (not owned).
   * @param mode       tracking-unit granularity (4 KiB or 2 MiB).
   */
  MigrationEngine(TieredMemory* memory, PerfModel* perf_model,
                  PageMode mode = PageMode::kRegular);

  virtual ~MigrationEngine() = default;

  /**
   * Promotes `pages` (slow -> fast) as one batch at time `now`,
   * stamped with the policy's `reason` code. Pages that are not in the
   * slow tier or do not fit are skipped and counted as failed. Returns
   * the modeled batch duration.
   *
   * Virtual so decorators (e.g. the multi-tenant fair-share gate) can
   * filter or veto a policy's decisions before they execute; decorators
   * must forward the reason so the audit sees the originating cause.
   */
  virtual TimeNs Promote(std::span<const PageId> pages, TimeNs now,
                         MigrationReason reason);

  /** Demotes `pages` (fast -> slow) as one batch at time `now`,
   *  stamped with `reason`. */
  virtual TimeNs Demote(std::span<const PageId> pages, TimeNs now,
                        MigrationReason reason);

  /** Cumulative statistics. */
  const MigrationStats& stats() const { return stats_; }

  /** Tracking-unit granularity. */
  PageMode mode() const { return mode_; }

  /** Placement substrate this engine operates on (not owned). */
  TieredMemory* memory() const { return memory_; }

  /** Timing model charged for copies (not owned). */
  PerfModel* perf_model() const { return perf_model_; }

  /**
   * Attaches a trace sink: every executed batch emits a span on
   * `track` covering its modeled duration. Hooked on the *real* engine
   * (the one the simulation owns), so batches filtered through a
   * decorator such as the fair-share quota gate are still traced when
   * they reach execution.
   */
  void SetTrace(TraceEmitter* trace, TraceEmitter::TrackId track) {
    trace_ = trace;
    trace_track_ = track;
  }

  /**
   * Attaches the decision audit. Like SetTrace, hooked on the *real*
   * engine so every executed batch is recorded regardless of which
   * decorator routed it here.
   */
  void SetAudit(DecisionAudit* audit) { audit_ = audit; }

  /**
   * The attached audit, if any. Virtual so decorators can forward to
   * the engine they wrap — policies reach the audit uniformly via
   * `migration().audit()` whether or not a gate sits in between.
   */
  virtual DecisionAudit* audit() const { return audit_; }

 private:
  TimeNs ExecuteBatch(std::span<const PageId> pages, Tier dst, TimeNs now,
                      MigrationReason reason);

  TieredMemory* memory_;
  PerfModel* perf_model_;
  PageMode mode_;
  MigrationStats stats_;
  std::vector<uint64_t> endpoint_pages_;  //!< Per-endpoint batch scratch.
  TraceEmitter* trace_ = nullptr;
  TraceEmitter::TrackId trace_track_ = 0;
  DecisionAudit* audit_ = nullptr;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_MEM_MIGRATION_H_
