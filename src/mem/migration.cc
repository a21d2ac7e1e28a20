#include "mem/migration.h"

#include "common/logging.h"

namespace hybridtier {

MigrationEngine::MigrationEngine(TieredMemory* memory, PerfModel* perf_model,
                                 PageMode mode)
    : memory_(memory), perf_model_(perf_model), mode_(mode) {
  HT_ASSERT(memory != nullptr && perf_model != nullptr,
            "migration engine needs memory and perf model");
}

TimeNs MigrationEngine::ExecuteBatch(std::span<const PageId> pages, Tier dst,
                                     TimeNs now, MigrationReason reason) {
  if (pages.empty()) return 0;
  // Each moved page's copy leg runs on its static home device (HDM
  // decode), so the batch is costed per endpoint.
  endpoint_pages_.assign(memory_->endpoint_count(), 0);
  uint64_t moved = 0;
  // A demotion of a page whose HDM home is a down endpoint is refused
  // and counted as failed: the kernel cannot copy into a device that no
  // longer answers. Promotions off the endpoint still work — evacuation
  // reads the dying device. The timing model holds endpoint health.
  const bool any_down =
      dst == Tier::kSlow && perf_model_->AnyEndpointDown();
  for (const PageId page : pages) {
    const uint32_t endpoint = memory_->EndpointOf(page);
    if (any_down) [[unlikely]] {
      if (perf_model_->EndpointDown(endpoint)) {
        ++stats_.failed_demotions;
        continue;
      }
    }
    const bool ok = memory_->IsResident(page) && memory_->Migrate(page, dst);
    if (ok) {
      ++moved;
      ++endpoint_pages_[endpoint];
      if (audit_ != nullptr) [[unlikely]] {
        if (dst == Tier::kFast) {
          audit_->OnPromoted(page, now);
        } else {
          audit_->OnDemoted(page, now);
        }
      }
    } else if (dst == Tier::kFast) {
      ++stats_.failed_promotions;
    } else {
      ++stats_.failed_demotions;
    }
  }

  if (dst == Tier::kFast) {
    stats_.promoted_pages += moved;
    ++stats_.promotion_batches;
  } else {
    stats_.demoted_pages += moved;
    ++stats_.demotion_batches;
  }

  const TimeNs cost =
      perf_model_->MigrationCost(endpoint_pages_, PageBytes(mode_), now);
  stats_.migration_time_ns += cost;
  if (audit_ != nullptr) [[unlikely]] {
    audit_->RecordBatch(dst == Tier::kFast, reason, now,
                        static_cast<uint32_t>(moved),
                        static_cast<uint32_t>(pages.size()));
  }
  if (trace_ != nullptr) [[unlikely]] {
    trace_->Span(trace_track_,
                 dst == Tier::kFast ? "promote_batch" : "demote_batch",
                 now, now + cost,
                 {{"pages", static_cast<double>(moved)},
                  {"requested", static_cast<double>(pages.size())},
                  {"reason", static_cast<double>(reason)}});
  }
  return cost;
}

TimeNs MigrationEngine::Promote(std::span<const PageId> pages, TimeNs now,
                                MigrationReason reason) {
  return ExecuteBatch(pages, Tier::kFast, now, reason);
}

TimeNs MigrationEngine::Demote(std::span<const PageId> pages, TimeNs now,
                               MigrationReason reason) {
  return ExecuteBatch(pages, Tier::kSlow, now, reason);
}

}  // namespace hybridtier
