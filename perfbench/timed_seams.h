#ifndef PERFBENCH_TIMED_SEAMS_H_
#define PERFBENCH_TIMED_SEAMS_H_

/**
 * @file
 * Timing decorators for the simulator's public seams.
 *
 * The benchmark measures each layer from outside the program: it wraps
 * `Workload::NextOp`, the `TieringPolicy` hooks and
 * `MigrationEngine::{Promote,Demote}` in decorators that forward every
 * call and record call counts and wall time. Nothing under `src/`
 * changes.
 *
 * A decorator must be invisible to the simulation. `Simulation` looks
 * up optional interfaces with `dynamic_cast` (`TenantTagSource` on the
 * workload, `TenantQuotaStatsSource` and `InvariantSource` on the
 * policy) and reads `access_interest()` to pick its dispatch mode, so
 * each decorator forwards all of them; a wrapper that dropped one would
 * silently change dispatch or per-tenant accounting. The benchmark
 * checks this: traced and untraced runs must produce the same simulated
 * digest, and each decorator must expose the same optional interfaces
 * and dispatch mode as what it wraps.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/watchdog.h"
#include "mem/migration.h"
#include "multitenant/tenant_stats.h"
#include "policies/policy.h"
#include "workloads/tenant_tag.h"
#include "workloads/workload.h"

namespace perfbench {

/** Calls into one seam and the wall time spent inside them. */
struct SeamTotals {
  uint64_t calls = 0;
  uint64_t ns = 0;

  /** Mean wall ns per call (0 when never called). */
  double MeanNs() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/** Everything the decorators of one simulation record. */
struct SeamRecorder {
  SeamTotals next_op;
  SeamTotals on_access;
  SeamTotals on_batch;
  SeamTotals on_sample;
  SeamTotals tick;
  SeamTotals promote;
  SeamTotals demote;

  // Migration outcomes of the batches that went through the timed
  // engine (the policy's own batches; fault evacuation calls the
  // simulation's engine directly and is counted by the fault layer).
  uint64_t pages_requested = 0;
  uint64_t pages_moved = 0;
  uint64_t failed_promotions = 0;
  uint64_t failed_demotions = 0;
  hybridtier::TimeNs modeled_migration_ns = 0;

  /** Wall ns inside outermost wrapped calls (nested calls, such as a
   *  Promote issued from Tick, are not counted twice). */
  uint64_t outer_ns = 0;
  int depth = 0;
};

/** Times one wrapped call into `totals` for as long as it lives. */
class SeamTimer {
 public:
  SeamTimer(SeamRecorder* recorder, SeamTotals* totals)
      : recorder_(recorder),
        totals_(totals),
        start_(std::chrono::steady_clock::now()) {
    ++recorder_->depth;
  }

  ~SeamTimer() {
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    ++totals_->calls;
    totals_->ns += ns;
    if (--recorder_->depth == 0) recorder_->outer_ns += ns;
  }

  SeamTimer(const SeamTimer&) = delete;
  SeamTimer& operator=(const SeamTimer&) = delete;

 private:
  SeamRecorder* recorder_;
  SeamTotals* totals_;
  std::chrono::steady_clock::time_point start_;
};

/**
 * Exact op latencies, reconstructed from the virtual clock the
 * simulation passes to `Workload::NextOp`: an op's latency is the clock
 * advance from its NextOp call to the next one, minus its think time.
 */
struct OpLatencies {
  /** Post-warm-up op count per latency in ns. */
  std::unordered_map<uint64_t, uint64_t> post_warmup;
  uint64_t ops = 0;       //!< All ops closed, warm-up included.
  uint64_t total_ns = 0;  //!< Their summed latency.

  /** Adds `other`'s ops (pools several workload instances). */
  void Merge(const OpLatencies& other);

  /** Post-warm-up ops recorded. */
  uint64_t PostWarmupOps() const;

  /**
   * Quantile `q` of the post-warm-up latencies, treating each integer
   * ns value v as the interval [v - 0.5, v + 0.5) and interpolating
   * inside it (the grouped-data quantile). Latencies sit on a few
   * discrete values, and a plain order statistic would read the same
   * value for every seed while the mass around it moves.
   */
  double Quantile(double q) const;
};

/**
 * Forwards a workload and counts the ops it hands out until the
 * simulation's warm-up point, so the benchmark can report post-warm-up
 * op throughput. With a recorder it also times every NextOp call; with
 * `latencies` it records every op's exact latency (call `Finish` after
 * the run to close the last op).
 */
class CountingWorkload : public hybridtier::Workload {
 public:
  /** `inner` is borrowed; `recorder` and `latencies` may be null. */
  CountingWorkload(hybridtier::Workload* inner, uint64_t warmup_accesses,
                   SeamRecorder* recorder, OpLatencies* latencies);

  bool NextOp(hybridtier::TimeNs now, hybridtier::OpTrace* op) override;
  uint64_t footprint_pages() const override {
    return inner_->footprint_pages();
  }
  const char* name() const override { return inner_->name(); }
  bool time_invariant() const override { return inner_->time_invariant(); }

  /**
   * Non-empty ops handed out up to and including the one that crossed
   * `warmup_accesses` (the op after which the simulation resets its
   * measurement statistics).
   */
  uint64_t warmup_ops() const { return warmup_ops_; }

  /** Closes the last op at the run's final virtual time. */
  void Finish(hybridtier::TimeNs end_ns);

 private:
  /** Records the pending op as ending at `now`. */
  void CloseOp(hybridtier::TimeNs now);

  hybridtier::Workload* inner_;
  SeamRecorder* recorder_;
  OpLatencies* latencies_;
  uint64_t warmup_accesses_;
  bool pending_ = false;  //!< An op was handed out and not yet closed.
  bool pending_measured_ = false;  //!< That op is past warm-up.
  hybridtier::TimeNs pending_start_ = 0;
  hybridtier::TimeNs pending_think_ = 0;
  uint64_t ops_ = 0;
  uint64_t accesses_ = 0;
  uint64_t warmup_ops_ = 0;
  bool warm_ = false;
};

/** `CountingWorkload` that also forwards tenant attribution. */
class CountingTenantWorkload : public CountingWorkload,
                               public hybridtier::TenantTagSource {
 public:
  CountingTenantWorkload(hybridtier::Workload* inner,
                         hybridtier::TenantTagSource* tags,
                         uint64_t warmup_accesses, SeamRecorder* recorder,
                         OpLatencies* latencies)
      : CountingWorkload(inner, warmup_accesses, recorder, latencies),
        tags_(tags) {}

  uint32_t tenant_count() const override { return tags_->tenant_count(); }
  uint32_t last_tenant() const override { return tags_->last_tenant(); }
  const std::string& tenant_name(uint32_t tenant) const override {
    return tags_->tenant_name(tenant);
  }
  hybridtier::PageRange tenant_units(
      uint32_t tenant, hybridtier::PageMode mode) const override {
    return tags_->tenant_units(tenant, mode);
  }
  bool tenant_active_at(uint32_t tenant,
                        hybridtier::TimeNs now) const override {
    return tags_->tenant_active_at(tenant, now);
  }
  double tenant_weight(uint32_t tenant) const override {
    return tags_->tenant_weight(tenant);
  }
  std::vector<std::pair<hybridtier::TimeNs, hybridtier::TimeNs>>
  tenant_windows(uint32_t tenant) const override {
    return tags_->tenant_windows(tenant);
  }

 private:
  hybridtier::TenantTagSource* tags_;
};

/** Wraps `inner`, forwarding `TenantTagSource` when it implements it. */
std::unique_ptr<CountingWorkload> WrapWorkload(hybridtier::Workload* inner,
                                               uint64_t warmup_accesses,
                                               SeamRecorder* recorder,
                                               OpLatencies* latencies);

/** Times Promote/Demote and records what each batch moved. */
class TimedEngine : public hybridtier::MigrationEngine {
 public:
  /** `inner` and `recorder` are borrowed. */
  TimedEngine(hybridtier::MigrationEngine* inner, SeamRecorder* recorder)
      : MigrationEngine(inner->memory(), inner->perf_model(), inner->mode()),
        inner_(inner),
        recorder_(recorder) {}

  hybridtier::TimeNs Promote(std::span<const hybridtier::PageId> pages,
                             hybridtier::TimeNs now,
                             hybridtier::MigrationReason reason) override;
  hybridtier::TimeNs Demote(std::span<const hybridtier::PageId> pages,
                            hybridtier::TimeNs now,
                            hybridtier::MigrationReason reason) override;
  hybridtier::DecisionAudit* audit() const override {
    return inner_->audit();
  }

 private:
  hybridtier::MigrationEngine* inner_;
  SeamRecorder* recorder_;
};

/**
 * Times every policy hook. `Bind` puts a `TimedEngine` between the
 * policy and the simulation's engine, so the policy's migrations are
 * timed too.
 */
class TimedPolicy : public hybridtier::TieringPolicy {
 public:
  /** `inner` and `recorder` are borrowed. */
  TimedPolicy(hybridtier::TieringPolicy* inner, SeamRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  void Bind(const hybridtier::PolicyContext& context) override;
  hybridtier::AccessInterest access_interest() const override {
    return inner_->access_interest();
  }
  void OnAccess(hybridtier::PageId unit,
                const hybridtier::TouchResult& touch,
                hybridtier::TimeNs now) override {
    SeamTimer timer(recorder_, &recorder_->on_access);
    inner_->OnAccess(unit, touch, now);
  }
  void OnSample(const hybridtier::SampleRecord& sample) override {
    SeamTimer timer(recorder_, &recorder_->on_sample);
    inner_->OnSample(sample);
  }
  void Tick(hybridtier::TimeNs now) override {
    SeamTimer timer(recorder_, &recorder_->tick);
    inner_->Tick(now);
  }
  void OnEndpointHealth(uint32_t endpoint, hybridtier::EndpointHealth state,
                        hybridtier::TimeNs now) override {
    inner_->OnEndpointHealth(endpoint, state, now);
  }
  void OnExternalMigration(hybridtier::TimeNs now) override {
    inner_->OnExternalMigration(now);
  }
  uint32_t HotnessOf(hybridtier::PageId unit) const override {
    return inner_->HotnessOf(unit);
  }
  size_t MetadataBytes() const override { return inner_->MetadataBytes(); }
  const char* name() const override { return inner_->name(); }

 protected:
  void OnAccessBatchImpl(
      std::span<const hybridtier::TouchEvent> events) override {
    SeamTimer timer(recorder_, &recorder_->on_batch);
    inner_->OnAccessBatch(events);
  }

 private:
  hybridtier::TieringPolicy* inner_;
  SeamRecorder* recorder_;
  std::unique_ptr<TimedEngine> engine_;
};

/** `TimedPolicy` that also forwards the quota-stats and invariant views
 *  of a quota-managing wrapper such as `FairSharePolicy`. */
class TimedQuotaPolicy : public TimedPolicy,
                         public hybridtier::TenantQuotaStatsSource,
                         public hybridtier::InvariantSource {
 public:
  TimedQuotaPolicy(hybridtier::TieringPolicy* inner,
                   const hybridtier::TenantQuotaStatsSource* quota_stats,
                   const hybridtier::InvariantSource* invariants,
                   SeamRecorder* recorder)
      : TimedPolicy(inner, recorder),
        quota_stats_(quota_stats),
        invariants_(invariants) {}

  bool GetTenantQuotaStats(uint32_t tenant,
                           hybridtier::TenantQuotaStats* out) const override {
    return quota_stats_->GetTenantQuotaStats(tenant, out);
  }
  bool CheckInvariants(std::string* error) const override {
    return invariants_->CheckInvariants(error);
  }

 private:
  const hybridtier::TenantQuotaStatsSource* quota_stats_;
  const hybridtier::InvariantSource* invariants_;
};

/**
 * Wraps `inner` in the decorator that forwards exactly the optional
 * interfaces it implements. Fatal for a policy that implements only one
 * of `TenantQuotaStatsSource` and `InvariantSource`: no such policy
 * exists, and a wrapper for it would have to drop one view.
 */
std::unique_ptr<TimedPolicy> WrapPolicy(hybridtier::TieringPolicy* inner,
                                        SeamRecorder* recorder);

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_SEAMS_H_
