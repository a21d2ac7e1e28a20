#include "timed_seams.h"

#include <algorithm>

#include "common/logging.h"

namespace perfbench {

using namespace hybridtier;

void OpLatencies::Merge(const OpLatencies& other) {
  for (const auto& [ns, count] : other.post_warmup) post_warmup[ns] += count;
  ops += other.ops;
  total_ns += other.total_ns;
}

uint64_t OpLatencies::PostWarmupOps() const {
  uint64_t n = 0;
  for (const auto& entry : post_warmup) n += entry.second;
  return n;
}

double OpLatencies::Quantile(double q) const {
  std::vector<std::pair<uint64_t, uint64_t>> sorted(post_warmup.begin(),
                                                    post_warmup.end());
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(PostWarmupOps());
  double below = 0.0;
  for (const auto& [ns, count] : sorted) {
    const double n = static_cast<double>(count);
    if (below + n >= rank) {
      return static_cast<double>(ns) - 0.5 + (rank - below) / n;
    }
    below += n;
  }
  return static_cast<double>(sorted.back().first) + 0.5;
}

CountingWorkload::CountingWorkload(Workload* inner, uint64_t warmup_accesses,
                                   SeamRecorder* recorder,
                                   OpLatencies* latencies)
    : inner_(inner),
      recorder_(recorder),
      latencies_(latencies),
      warmup_accesses_(warmup_accesses),
      warm_(warmup_accesses == 0) {}

void CountingWorkload::CloseOp(TimeNs now) {
  const uint64_t latency = now - pending_start_ - pending_think_;
  ++latencies_->ops;
  latencies_->total_ns += latency;
  if (pending_measured_) ++latencies_->post_warmup[latency];
  pending_ = false;
}

void CountingWorkload::Finish(TimeNs end_ns) {
  if (pending_) CloseOp(end_ns);
}

bool CountingWorkload::NextOp(TimeNs now, OpTrace* op) {
  // Between two NextOp calls the simulation advances its clock by
  // exactly the op's think time plus its latency.
  if (pending_) CloseOp(now);
  bool more;
  if (recorder_ != nullptr) {
    SeamTimer timer(recorder_, &recorder_->next_op);
    more = inner_->NextOp(now, op);
  } else {
    more = inner_->NextOp(now, op);
  }
  // Mirrors Simulation::Run: empty ops are idle gaps, not operations,
  // and warm-up ends after the op whose accesses cross the budget.
  if (more && !op->accesses.empty()) {
    if (latencies_ != nullptr) {
      pending_ = true;
      pending_measured_ = warm_;
      pending_start_ = now;
      pending_think_ = op->think_time_ns;
    }
    ++ops_;
    accesses_ += op->accesses.size();
    if (!warm_ && accesses_ >= warmup_accesses_) {
      warm_ = true;
      warmup_ops_ = ops_;
    }
  }
  return more;
}

std::unique_ptr<CountingWorkload> WrapWorkload(Workload* inner,
                                               uint64_t warmup_accesses,
                                               SeamRecorder* recorder,
                                               OpLatencies* latencies) {
  if (auto* tags = dynamic_cast<TenantTagSource*>(inner)) {
    return std::make_unique<CountingTenantWorkload>(
        inner, tags, warmup_accesses, recorder, latencies);
  }
  return std::make_unique<CountingWorkload>(inner, warmup_accesses, recorder,
                                            latencies);
}

TimeNs TimedEngine::Promote(std::span<const PageId> pages, TimeNs now,
                            MigrationReason reason) {
  const MigrationStats before = inner_->stats();
  TimeNs modeled;
  {
    SeamTimer timer(recorder_, &recorder_->promote);
    modeled = inner_->Promote(pages, now, reason);
  }
  const MigrationStats& after = inner_->stats();
  recorder_->pages_requested += pages.size();
  recorder_->pages_moved += after.promoted_pages - before.promoted_pages;
  recorder_->failed_promotions +=
      after.failed_promotions - before.failed_promotions;
  recorder_->modeled_migration_ns += modeled;
  return modeled;
}

TimeNs TimedEngine::Demote(std::span<const PageId> pages, TimeNs now,
                           MigrationReason reason) {
  const MigrationStats before = inner_->stats();
  TimeNs modeled;
  {
    SeamTimer timer(recorder_, &recorder_->demote);
    modeled = inner_->Demote(pages, now, reason);
  }
  const MigrationStats& after = inner_->stats();
  recorder_->pages_requested += pages.size();
  recorder_->pages_moved += after.demoted_pages - before.demoted_pages;
  recorder_->failed_demotions +=
      after.failed_demotions - before.failed_demotions;
  recorder_->modeled_migration_ns += modeled;
  return modeled;
}

void TimedPolicy::Bind(const PolicyContext& context) {
  engine_ = std::make_unique<TimedEngine>(context.migration, recorder_);
  PolicyContext timed = context;
  timed.migration = engine_.get();
  inner_->Bind(timed);
}

std::unique_ptr<TimedPolicy> WrapPolicy(TieringPolicy* inner,
                                        SeamRecorder* recorder) {
  const auto* quota_stats = dynamic_cast<const TenantQuotaStatsSource*>(inner);
  const auto* invariants = dynamic_cast<const InvariantSource*>(inner);
  HT_ASSERT((quota_stats == nullptr) == (invariants == nullptr),
            "policy '", inner->name(),
            "' implements only one of TenantQuotaStatsSource and "
            "InvariantSource; the timing decorator cannot forward it");
  if (quota_stats != nullptr) {
    return std::make_unique<TimedQuotaPolicy>(inner, quota_stats, invariants,
                                              recorder);
  }
  return std::make_unique<TimedPolicy>(inner, recorder);
}

}  // namespace perfbench
